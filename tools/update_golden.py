#!/usr/bin/env python
"""Regenerate the golden tiny-preset statistics fixtures.

Runs every (application, policy) cell at the ``tiny`` preset and writes
the full ``MachineStats.to_dict()`` of each to
``tests/integration/golden_tiny_stats.json``.  It also runs a fixed set
of seeded fault-plan cells (``FaultPlan.sample`` over fft, lu, kvstore
and txn2pc, with and without a deadline, a node pause and a scheduled
node failure) and writes one stats digest, or the raised exception, per
cell to ``tests/integration/golden_faulted_stats.json``.  Finally it
walks every CPU's op stream of each application at ``tiny`` (kvstore
also at ``serving``, plus the synthetic patterns), fully expanded to
single references, and writes one sha256 per workload to
``tests/integration/golden_op_streams.json``.  The committed fixtures
are the references that ``tests/integration/test_golden_stats.py``,
``test_golden_faulted.py`` and ``test_golden_op_streams.py`` diff
against; rerun this script (and review the diff!) whenever an
intentional change shifts simulation results or a kernel's references:

    PYTHONPATH=src python tools/update_golden.py
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "integration" / "golden_tiny_stats.json"
FAULTED_FIXTURE = ROOT / "tests" / "integration" / "golden_faulted_stats.json"
OPS_FIXTURE = ROOT / "tests" / "integration" / "golden_op_streams.json"

#: The faulted matrix: apps x policies x plan seeds x variants.
FAULTED_APPS = ("fft", "lu", "kvstore", "txn2pc")
FAULTED_POLICIES = ("scoma", "lanuma", "dyn-lru")
FAULTED_SEEDS = (0, 1)
FAULTED_VARIANTS = ("plan", "deadline", "pause", "pause+deadline", "fail")
#: Synthetic cells of the op-stream fixture: name -> constructor kwargs.
SYNTHETIC_OP_CELLS = {
    "block": {"pattern": "block", "shared_kb": 32,
              "refs_per_cpu_per_iter": 400, "iterations": 2},
    "block-random": {"pattern": "block", "shared_kb": 32,
                     "refs_per_cpu_per_iter": 400, "iterations": 2,
                     "random_order": True, "imbalance": 0.5},
    "random": {"pattern": "random", "shared_kb": 32,
               "refs_per_cpu_per_iter": 400, "iterations": 2},
    "migratory": {"pattern": "migratory", "shared_kb": 8, "iterations": 4},
    "producer_consumer": {"pattern": "producer_consumer", "shared_kb": 8,
                          "iterations": 4},
    "reuse_vs_stream": {"pattern": "reuse_vs_stream", "shared_kb": 32,
                        "refs_per_cpu_per_iter": 400, "iterations": 4},
}
#: CPU counts each op-stream cell is walked at.
OP_STREAM_CPUS = (4, 7)
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


def op_stream_workloads() -> "dict[str, object]":
    """The op-stream fixture's cells: ``name/preset`` -> fresh workload."""
    from repro.workloads import ALL_APPLICATIONS, make_workload
    from repro.workloads.synthetic import SyntheticWorkload

    cells = {"%s/tiny" % app: make_workload(app, preset="tiny")
             for app in ALL_APPLICATIONS}
    cells["kvstore/serving"] = make_workload("kvstore", preset="serving")
    for name, kwargs in SYNTHETIC_OP_CELLS.items():
        cells["synthetic-%s" % name] = SyntheticWorkload(**kwargs)
    return cells


def op_stream_digest(workload) -> str:
    """sha256 of every CPU's fully expanded op stream.

    The workload is set up on the ``tiny_config`` page geometry once
    per CPU count in :data:`OP_STREAM_CPUS` (the second count does not
    divide the problem sizes evenly); each op is expanded with
    ``expand_op`` to single references and hashed as its ``kind arg``
    pair, so the digest pins what the machine simulates, not how the
    kernel batches it.
    """
    import hashlib

    from repro.kernel.segments import AddressSpaceLayout, GlobalIpcServer
    from repro.sim.config import tiny_config
    from repro.sim.ops import expand_op

    config = tiny_config()
    digest = hashlib.sha256()
    for num_cpus in OP_STREAM_CPUS:
        layout = AddressSpaceLayout(
            GlobalIpcServer(config.num_nodes, config.page_bytes),
            config.page_bytes)
        workload.setup(layout, num_cpus)
        for cpu in range(num_cpus):
            digest.update(b"cpu %d/%d\n" % (cpu, num_cpus))
            for op in workload.generator(cpu, num_cpus):
                for kind, arg in expand_op(op):
                    digest.update(b"%d %d\n" % (kind, arg))
    return digest.hexdigest()


def compute_op_stream_golden() -> "dict[str, str]":
    """Digest every op-stream cell: ``name/preset`` -> sha256."""
    return {name: op_stream_digest(workload)
            for name, workload in op_stream_workloads().items()}


def main() -> int:
    for path, cells in ((FIXTURE, compute_golden()),
                        (FAULTED_FIXTURE, compute_faulted_golden()),
                        (OPS_FIXTURE, compute_op_stream_golden())):
        path.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
        print("wrote %s (%d cells)" % (path, len(cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
