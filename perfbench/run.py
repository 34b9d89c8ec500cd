"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hot-loop --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the simulator is imported from
``src/``.  With ``--trace 0`` it prints every end-to-end metric of
BENCHMARK.json, measured with tracing off: a warm-up, then timed units
repeated until ``--seconds`` have passed, medians over the units.  Host
times are reported in reference seconds (``calibrate.py``).
With ``--trace 1`` it prints every per-layer metric instead: one
untraced unit, then one unit under ``cProfile`` and the benchmark's own
spans (written to ``perfbench/out/``), while a child process runs the
same unit under a causal ``TraceCollector`` for the simulated waits.
The last line of output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 11

CAVEAT = (
    "caveat: Network.send, Cache.insert, Tlb.lookup, probe_l2 and "
    "Resource.acquire are inlined at hot call sites, so their host time "
    "is charged to the calling layer (interconnect.self_s is ~0 even on "
    "barnes/LANUMA); the exact counts, e.g. interconnect.messages read "
    "from Network.messages, do not depend on inlining.")


def probe(mode: str, workload: str, seed: int) -> "list[str]":
    """Command line of a ``probe.py`` child process."""
    return [sys.executable, str(ROOT / "perfbench" / "probe.py"), mode,
            workload, str(seed)]


#: Environment of the probe children: the simulator and this package.
PROBE_ENV = dict(os.environ,
                 PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))


def setup_seconds(workload: str, seed: int, clock) -> "tuple[float, float]":
    """Median seconds of :data:`SETUP_PROBES` cold set-ups, each in a
    fresh interpreter: ``(measured, reference)``, each probe scaled by
    the calibration passes just before and after it."""
    from perfbench.calibrate import REFERENCE_S

    measured, reference = [], []
    before = clock()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe("setup", workload, seed), env=PROBE_ENV,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        after = clock()
        seconds = float(done.stdout.split()[-1])
        measured.append(seconds)
        reference.append(seconds * 2.0 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(measured), statistics.median(reference)


def round_times(units) -> "list[float]":
    """Reference milliseconds of each distinct round.  Round ``i`` runs
    the same work in every unit, so each is the median of its times
    over the units; with one round per unit, the units' rounds."""
    rounds = [unit.rounds_ms for unit in units]
    if all(len(each) == 1 for each in rounds):
        return [each[0] for each in rounds]
    return [statistics.median(times) for times in zip(*rounds)]


def timed_metrics(workload, seed: int, seconds: float):
    """End-to-end metrics over units repeated for ``seconds``; host
    times in reference seconds (see ``calibrate.py``)."""
    from perfbench.calibrate import HostClock
    from perfbench.suite import measure

    # One core for the whole measurement, set-up children included: each
    # piece of work is then scaled by passes taken on the core it ran on.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        clock = HostClock()
        setup, reference_setup = setup_seconds(workload.name, seed, clock)
        workload.warmup()
        units = []
        start = perf_counter()
        while not units or perf_counter() - start < seconds:
            units.append(measure(workload, clock)[0])
    finally:
        os.sched_setaffinity(0, affinity)
    rounds = round_times(units)
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    first = units[0]
    metrics = {
        "wall_s": statistics.median(unit.reference for unit in units),
        "refs_per_s": statistics.median(unit.references / unit.reference
                                        for unit in units),
        "setup_s": reference_setup,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
        "sim_cycles": first.cycles,
        "round_p50_ms": _quantile(rounds, 5),
        "round_p90_ms": _quantile(rounds, 9),
        "req_p99_cycles": first.req_p99_cycles,
        "req_per_kcycle": first.req_per_kcycle,
    }
    notes = ["%d timed units; %d round times (round_p90_ms has %d beyond "
             "it)" % (len(units), len(rounds), len(rounds) // 10),
             "measured median unit %.4f s, set-up %.4f s; %d calibration "
             "passes" % (statistics.median(unit.wall for unit in units),
                         setup, len(clock.samples))]
    # Repeats run identical work, so every simulated output must agree.
    consistent = len({unit.digest for unit in units}) == 1
    if not consistent:
        notes.append("FAIL: simulated outputs differ between repeats")
    return metrics, units, consistent, notes


def traced_metrics(workload, seed: int):
    """Per-layer metrics of one profiled unit (after one untraced one);
    the simulated waits come from a ``probe.py waits`` child run
    beside the profiled unit."""
    from perfbench.calibrate import HostClock, no_clock
    from perfbench.layers import LAYERS, Tracer, layer_profile
    from perfbench.suite import Unit, measure

    workload.warmup()
    clock = HostClock()
    plain = measure(workload, clock)[0]
    # The profiled unit takes no calibration passes (they would be
    # profiled too); the untraced unit's factor scales both.
    scale = plain.reference / plain.wall
    tracer = Tracer()
    profiler = cProfile.Profile()
    child = subprocess.Popen(probe("waits", workload.name, seed),
                             env=PROBE_ENV, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        start = perf_counter()
        profiler.enable()
        try:
            unit, log = measure(workload, no_clock, tracer)
        finally:
            profiler.disable()
        wall = perf_counter() - start
        out, err = child.communicate(timeout=170)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError("waits probe failed:\n%s" % err[-4000:])
    waited = json.loads(out.splitlines()[-1])
    traced = Unit(attempted=waited["attempted"], failed=waited["failed"],
                  failures=waited["failures"], digest=waited["digest"])
    tracer.write(str(OUT / ("spans-%s-%d.jsonl" % (workload.name, seed))))

    self_s, sites = layer_profile(profiler)
    self_s = {layer: seconds * scale for layer, seconds in self_s.items()}
    sites["verify.check_s"] *= scale
    wall *= scale
    counts = log.counts
    builds = tracer.durations("machine.build")
    metrics = {"%s.self_s" % layer: self_s[layer] for layer in LAYERS}
    metrics.update(sites)
    metrics.update({
        "harness.cells": len(tracer.durations("cell")),
        "sim.machines_built": len(builds),
        "sim.machine_build_s": sum(builds) * scale,
        "mem.l1_hit_ratio": _ratio(counts["mem.l1_hits"],
                                   counts["sim.references"]),
        "core.dir_cache_hit_ratio": _ratio(
            counts["dir.hits"], counts["dir.hits"] + counts["dir.misses"]),
        "core.pit_fast_ratio": 1.0 - _ratio(counts["pit.hash_lookups"],
                                            counts["pit.lookups"]),
        "other.self_s": wall - sum(self_s.values()),
        "trace_overhead": wall / (plain.wall * scale),
    })
    for key in ("sim.references", "mem.l1_hits", "mem.l2_hits",
                "mem.tlb_misses", "core.remote_misses", "core.local_misses",
                "core.invalidations", "kernel.page_faults",
                "kernel.client_page_outs", "kernel.mode_demotions",
                "interconnect.messages", "faults.judged", "faults.dropped",
                "faults.retransmissions"):
        metrics[key] = counts[key]
    for segment, cycles in waited["waits"].items():
        metrics["wait.%s_cycles" % segment] = cycles
    # Profiling and causal tracing are passive: both instrumented units
    # must simulate exactly what the untraced one did.
    consistent = unit.digest == plain.digest == traced.digest
    notes = ["host factor %.4f; traced wall %.3f s = layers %.3f s + other "
             "%.3f s (reference seconds)"
             % (scale, wall, sum(self_s.values()), metrics["other.self_s"]),
             CAVEAT]
    if not consistent:
        notes.append("FAIL: traced and untraced simulated outputs differ")
    return metrics, [plain, unit, traced], consistent, notes


def _quantile(values, tenth: int) -> float:
    """The ``tenth``/10 quantile of ``values`` (the value itself for
    one sample), interpolated between samples: with few samples the
    default method extrapolates past the largest one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[tenth - 1]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in-process; returns the result object."""
    from perfbench.suite import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name](seed)
    if trace:
        metrics, units, consistent, notes = traced_metrics(workload, seed)
        section = declared["per_layer"]
    else:
        metrics, units, consistent, notes = timed_metrics(workload, seed,
                                                          seconds)
        section = declared["end_to_end"]
    units_of = {entry["name"]: entry["unit"] for entry in section}
    if set(metrics) != set(units_of):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                           % sorted(set(metrics) ^ set(units_of)))
    failed = sum(unit.failed for unit in units)
    return {
        "correct": failed == 0 and consistent,
        "attempted": sum(unit.attempted for unit in units),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units_of[key]}
                    for key in units_of},
        "notes": notes + [message for unit in units
                          for message in unit.failures],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7-campaign", "hot-loop",
                                 "serving-faults"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print("perfbench: imported repro from %s, not %s"
              % (repro.__file__, SRC), file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in result.pop("notes"):
        print(note)
    for key, entry in result["metrics"].items():
        print("%-26s %18.6g %s" % (key, entry["value"], entry["unit"]))
    print("correct=%s attempted=%d failed=%d" % (
        result["correct"], result["attempted"], result["failed"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
