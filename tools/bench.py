#!/usr/bin/env python
"""Simulator host-throughput benchmark and regression gate.

Runs a pinned matrix of (workload, policy) cells on a small fixed
machine geometry (the same 2x2 machine ``benchmarks/
test_simulator_throughput.py`` uses), measures simulated references
per host second, and writes the result as a ``BENCH_sim.json``
trajectory point::

    {
      "schema": 1,
      "host": {"python": ..., "implementation": ..., "platform": ...},
      "rounds": 3,
      "cells": [
        {"cell": "block/scoma", "refs_per_sec": ..., "wall_s": ...,
         "cycles": ..., "references": ...},
        ...
      ]
    }

Each cell is timed ``--rounds`` times and the best (minimum) wall time
is reported, which filters scheduler noise for CI gating.

Usage::

    PYTHONPATH=src python tools/bench.py --out BENCH_sim.json
    PYTHONPATH=src python tools/bench.py --quick \
        --compare BENCH_sim.json --tolerance 0.10

``--compare`` exits nonzero when any cell's refs/sec fell more than
``--tolerance`` below the old file's value (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.sim.config import MachineConfig
from repro.sim.machine import Machine


def _bench_config() -> MachineConfig:
    """The pinned machine geometry most cells run on."""
    return MachineConfig(num_nodes=2, cpus_per_node=2,
                         directory_cache_entries=256)


def _serial_config() -> MachineConfig:
    """One CPU total: no cross-CPU interleaving at all."""
    return MachineConfig(num_nodes=1, cpus_per_node=1,
                         directory_cache_entries=256)


def _wide_config() -> MachineConfig:
    """The paper-scale 32 nodes x 8 CPUs geometry."""
    return MachineConfig(num_nodes=32, cpus_per_node=8,
                         directory_cache_entries=1024)


def _synthetic(pattern: str, **kwargs):
    from repro.workloads.synthetic import SyntheticWorkload
    kwargs.setdefault("shared_kb", 64)
    kwargs.setdefault("refs_per_cpu_per_iter", 2000)
    kwargs.setdefault("iterations", 2)
    return SyntheticWorkload(pattern, **kwargs)


def _preset(app: str, preset: str):
    from repro.workloads import make_workload
    return make_workload(app, preset)


def _skew(num_cpus: int, scale: int = 1997):
    """A deterministic start-time skew (breaks CPU-clock lockstep)."""
    from repro.sim.engine import SchedulePerturbation
    return SchedulePerturbation(
        cpu_offsets=tuple((i * scale) % 16384 for i in range(num_cpus)))


class Cell:
    """One benchmark cell: policy + workload factory + machine shape.

    ``config`` picks the machine geometry and ``schedule`` an optional
    start-time perturbation.
    """

    __slots__ = ("policy", "factory", "config", "schedule")

    def __init__(self, policy, factory, config=_bench_config,
                 schedule=None):
        self.policy = policy
        self.factory = factory
        self.config = config
        self.schedule = schedule


def _hot(cpus: int, **kwargs):
    """A warmed-up block sweep whose per-CPU working set fits in L1
    (1 KB per CPU on the default geometry): the hit-dominated regime
    where the event loop and the access fast path dominate."""
    kwargs.setdefault("shared_kb", cpus)
    kwargs.setdefault("iterations", 20)
    return _synthetic("block", **kwargs)


#: The pinned cell matrix.  The first block matches
#: benchmarks/test_simulator_throughput.py; the ``hot-*`` family is
#: hit-dominated (sub-1% miss rate after warm-up) and gates the event
#: loop and access fast path across scheduling regimes (lockstep,
#: skewed clocks, imbalanced work, single CPU); the ``*-32x8`` cells
#: run the paper-scale geometry.
CELLS = {
    "block/scoma": Cell("scoma", lambda: _synthetic("block")),
    "block/lanuma": Cell("lanuma", lambda: _synthetic("block")),
    "random/lanuma": Cell("lanuma", lambda: _synthetic("random")),
    "migratory/dyn-lru": Cell("dyn-lru", lambda: _synthetic("migratory")),
    "fft-tiny/scoma": Cell("scoma", lambda: _preset("fft", "tiny")),
    "fft-small/scoma": Cell("scoma", lambda: _preset("fft", "small")),
    "lu-tiny/scoma": Cell("scoma", lambda: _preset("lu", "tiny")),
    "hot-uniform/scoma": Cell("scoma", lambda: _hot(4)),
    "hot-skew/scoma": Cell("scoma", lambda: _hot(4),
                           schedule=lambda: _skew(4)),
    "hot-imbalance/scoma": Cell(
        "scoma", lambda: _hot(4, iterations=8, imbalance=7.0)),
    "hot-serial/scoma": Cell("scoma", lambda: _hot(1),
                             config=_serial_config),
    "hot-32x8/scoma": Cell(
        "scoma", lambda: _hot(256, iterations=4), config=_wide_config),
    "skew-32x8/scoma": Cell(
        "scoma", lambda: _hot(256, iterations=4), config=_wide_config,
        schedule=lambda: _skew(256)),
    # Serving family: Zipfian request mix (lock-free, barrier-batched)
    # and the lock-heavy 2PC transaction loop.
    "kvstore-tiny/scoma": Cell("scoma", lambda: _preset("kvstore", "tiny")),
    "txn2pc-tiny/scoma": Cell("scoma", lambda: _preset("txn2pc", "tiny")),
}

#: The CI subset: one synthetic hot-loop cell, one remote-heavy cell,
#: one real-kernel cell, one single-CPU hot cell, one serving cell.
#: Runs in a few seconds per round.
QUICK_CELLS = ("block/scoma", "random/lanuma", "fft-tiny/scoma",
               "hot-serial/scoma", "kvstore-tiny/scoma")


def run_cell(name: str, rounds: int) -> "dict[str, object]":
    """Benchmark one cell; returns its record (best-of-``rounds``
    wall time)."""
    cell = CELLS[name]
    best_wall = None
    references = cycles = 0
    for _ in range(rounds):
        schedule = cell.schedule() if cell.schedule is not None else None
        machine = Machine(cell.config(), policy=cell.policy,
                          schedule=schedule)
        workload = cell.factory()
        start = time.perf_counter()
        result = machine.run(workload)
        wall = time.perf_counter() - start
        references = result.stats.references
        cycles = result.stats.execution_cycles
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {
        "cell": name,
        "refs_per_sec": round(references / best_wall, 1),
        "wall_s": round(best_wall, 4),
        "cycles": cycles,
        "references": references,
    }


def trace_overhead(rounds: int, tolerance: float) -> int:
    """Gate the causal-tracing overhead on a hit-dominated hot loop.

    Times the cell best-of-``rounds`` untraced, then again under a
    :class:`~repro.obs.tracing.TraceCollector`; fails when the traced
    run is more than ``tolerance`` slower.  The tracer only opens
    spans on slow paths — cache hits never touch it — so the gate
    cell is a warmed-up block sweep whose working set fits in cache
    (miss rate under 1%).  The cold-miss cells of the main matrix
    would instead measure per-transaction span cost, which tracing
    makes no claim about.
    """
    from repro.obs import tracing

    name = "block-hot/scoma"
    policy = "scoma"

    def factory():
        return _synthetic("block", shared_kb=8, iterations=20)

    def one(traced: bool) -> float:
        if traced:
            collector = tracing.install(tracing.TraceCollector(seed=0))
        try:
            machine = Machine(_bench_config(), policy=policy)
            workload = factory()
            start = time.perf_counter()
            machine.run(workload)
            wall = time.perf_counter() - start
        finally:
            if traced:
                assert collector.finished > 0
                tracing.uninstall()
        return wall

    # Interleave the two arms (after one discarded warm-up each) so
    # slow host phases depress both equally; best-of filters the rest.
    one(False), one(True)
    plain = traced = None
    for _ in range(rounds):
        wall = one(False)
        plain = wall if plain is None or wall < plain else plain
        wall = one(True)
        traced = wall if traced is None or wall < traced else traced
    slowdown = traced / plain
    print("== tracing overhead gate (tolerance %.0f%%) ==" % (tolerance * 100))
    print("  %-20s untraced %8.3fs  traced %8.3fs  (%+.1f%%)"
          % (name, plain, traced, (slowdown - 1.0) * 100))
    if slowdown > 1.0 + tolerance:
        print("trace overhead: traced run is %.0f%% slower than untraced "
              "(limit %.0f%%)" % ((slowdown - 1.0) * 100, tolerance * 100))
        return 1
    print("trace overhead: OK")
    return 0


def geomean(values) -> float:
    """Geometric mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    import math
    return math.exp(sum(math.log(v) for v in values) / len(values))


def host_metadata() -> "dict[str, str]":
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def compare(old: "dict[str, object]", new: "dict[str, object]",
            tolerance: float) -> int:
    """Gate ``new`` against ``old``; returns the process exit code.

    Cells are listed worst-delta first, so the biggest regression tops
    the report; the failure line names the offending cells and their
    drops (not just a count).  Cells without a baseline are reported
    as NEW and never gate.
    """
    old_cells = {c["cell"]: c for c in old.get("cells", [])}
    fresh, rated = [], []
    for record in new["cells"]:
        baseline = old_cells.get(record["cell"])
        if baseline is None:
            fresh.append(record)
        else:
            ratio = record["refs_per_sec"] / baseline["refs_per_sec"]
            rated.append((ratio, record, baseline))
    rated.sort(key=lambda entry: entry[0])
    print("\n== bench compare (tolerance %.0f%%, worst first) =="
          % (tolerance * 100))
    regressions = []
    for ratio, record, baseline in rated:
        label = "OK"
        if ratio < 1.0 - tolerance:
            label = "REGRESSION"
            regressions.append((record["cell"], ratio))
        print("  %-22s %-10s %10.0f refs/s vs %10.0f baseline (%+.1f%%)"
              % (record["cell"], label, record["refs_per_sec"],
                 baseline["refs_per_sec"], (ratio - 1.0) * 100))
    for record in fresh:
        print("  %-22s NEW        %10.0f refs/s (no baseline)"
              % (record["cell"], record["refs_per_sec"]))
    if regressions:
        print("bench compare: REGRESSION in %s (worst: %s, %.1f%% below "
              "baseline; tolerance %.0f%%)"
              % (", ".join(name for name, _ in regressions),
                 regressions[0][0], (1.0 - regressions[0][1]) * 100,
                 tolerance * 100))
        return 1
    print("bench compare: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator host-throughput benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="run the small CI matrix (%s)"
                             % ", ".join(QUICK_CELLS))
    parser.add_argument("--cells", nargs="*", metavar="CELL",
                        choices=sorted(CELLS), default=None,
                        help="explicit cells to run (default: full matrix)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per cell; best is kept "
                             "(default: 3)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the trajectory JSON here "
                             "(e.g. BENCH_sim.json)")
    parser.add_argument("--compare", metavar="OLD", default=None,
                        help="gate against a previous trajectory file")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed refs/sec drop in --compare mode "
                             "(default: 0.10)")
    parser.add_argument("--trace-overhead", action="store_true",
                        help="instead of the matrix, gate the causal-"
                             "tracing slowdown on one cell")
    parser.add_argument("--trace-tolerance", type=float, default=0.15,
                        help="allowed traced-vs-untraced slowdown in "
                             "--trace-overhead mode (default: 0.15)")
    args = parser.parse_args(argv)

    if args.trace_overhead:
        return trace_overhead(args.rounds, args.trace_tolerance)

    if args.cells:
        names = args.cells
    elif args.quick:
        names = list(QUICK_CELLS)
    else:
        names = list(CELLS)

    print("== simulator throughput (%d round%s per cell) =="
          % (args.rounds, "s" if args.rounds != 1 else ""))
    records = []
    for name in names:
        record = run_cell(name, args.rounds)
        records.append(record)
        print("  %-22s %8d refs %8.3fs %10.0f refs/s"
              % (record["cell"], record["references"],
                 record["wall_s"], record["refs_per_sec"]))
    print("  %-22s %28s %10.0f refs/s"
          % ("geomean", "(%d cells)" % len(records),
             geomean(r["refs_per_sec"] for r in records)))

    payload = {
        "schema": 1,
        "host": host_metadata(),
        "rounds": args.rounds,
        "cells": records,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)

    if args.compare:
        with open(args.compare) as handle:
            old = json.load(handle)
        return compare(old, payload, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
