#!/usr/bin/env python
"""Regenerate the golden tiny-preset statistics fixtures.

Runs every (application, policy) cell at the ``tiny`` preset and writes
the full ``MachineStats.to_dict()`` of each to
``tests/integration/golden_tiny_stats.json``.  It also runs a fixed set
of seeded fault-plan cells (``FaultPlan.sample`` over fft, lu, kvstore
and txn2pc, with and without a deadline, a node pause and a scheduled
node failure) and writes one stats digest, or the raised exception, per
cell to ``tests/integration/golden_faulted_stats.json``.  The committed
fixtures are the references that ``tests/integration/test_golden_stats.py``
and ``test_golden_faulted.py`` diff against; rerun this script (and
review the diff!) whenever an intentional change shifts simulation
results:

    PYTHONPATH=src python tools/update_golden.py
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "integration" / "golden_tiny_stats.json"
FAULTED_FIXTURE = ROOT / "tests" / "integration" / "golden_faulted_stats.json"

#: The faulted matrix: apps x policies x plan seeds x variants.
FAULTED_APPS = ("fft", "lu", "kvstore", "txn2pc")
FAULTED_POLICIES = ("scoma", "lanuma", "dyn-lru")
FAULTED_SEEDS = (0, 1)
FAULTED_VARIANTS = ("plan", "deadline", "pause", "pause+deadline", "fail")
#: Per-app simulated-cycle deadlines, near each app's fault-free tiny
#: run length so that some faulted runs finish and some exceed them.
FAULTED_DEADLINES = {"fft": 400_000, "lu": 2_000_000,
                     "kvstore": 600_000, "txn2pc": 300_000}


def compute_golden() -> "dict[str, dict]":
    """Simulate every (app, policy) cell at the tiny preset."""
    from repro.core.policies import POLICY_NAMES
    from repro.sim.config import tiny_config
    from repro.sim.machine import Machine
    from repro.workloads import ALL_APPLICATIONS, make_workload

    cells = {}
    for app in ALL_APPLICATIONS:
        for policy in POLICY_NAMES:
            machine = Machine(tiny_config(), policy=policy)
            machine.run(make_workload(app, preset="tiny"))
            cells["%s/%s" % (app, policy)] = machine.stats.to_dict()
    return cells


def faulted_cell(app: str, policy: str, seed: int,
                 variant: str) -> "dict[str, str]":
    """Run one seeded faulted cell; digest its stats or its exception.

    The plan is ``FaultPlan.sample`` drawn from ``Random(seed)``; the
    variant adds a deadline, a pause of node ``seed % num_nodes``
    and/or a scheduled hard failure of node 1.  The digest is the
    sha256 of the canonical JSON of the machine and fault-plane stats.
    """
    import hashlib
    import random

    from repro.faults import FaultInjector, FaultPlan
    from repro.sim.config import tiny_config
    from repro.sim.machine import Machine
    from repro.workloads import make_workload

    config = tiny_config()
    plan = FaultPlan.sample(random.Random(seed), config.num_nodes)
    if "pause" in variant:
        start = 20_000 + 5_000 * seed
        plan.pause_node(seed % config.num_nodes, start, start + 15_000)
    if variant == "fail":
        plan.fail_node(1, at=50_000 + 10_000 * seed)
    deadline = FAULTED_DEADLINES[app] if "deadline" in variant else None
    injector = FaultInjector(plan, seed=seed)
    try:
        machine = Machine(config, policy=policy, faults=injector,
                          deadline=deadline)
        machine.run(make_workload(app, preset="tiny"))
    except Exception as exc:  # the recorded outcome, not a test failure
        return {"raises": type(exc).__name__, "message": str(exc)}
    payload = {"stats": machine.stats.to_dict(),
               "faults": injector.stats.to_dict()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {"stats_sha256":
            hashlib.sha256(canonical.encode("utf-8")).hexdigest()}


def compute_faulted_golden() -> "dict[str, dict[str, str]]":
    """Run every faulted cell: ``app/policy/seed/variant`` -> outcome."""
    return {"%s/%s/s%d/%s" % (app, policy, seed, variant):
            faulted_cell(app, policy, seed, variant)
            for app in FAULTED_APPS for policy in FAULTED_POLICIES
            for seed in FAULTED_SEEDS for variant in FAULTED_VARIANTS}


def main() -> int:
    for path, cells in ((FIXTURE, compute_golden()),
                        (FAULTED_FIXTURE, compute_faulted_golden())):
        path.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
        print("wrote %s (%d cells)" % (path, len(cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
