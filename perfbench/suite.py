"""The benchmark's workloads: what each one runs and how it is checked.

Every workload has the same shape:

* ``build()`` is one cold set-up: the machines and workload set-up the
  timed phase starts with (the set-up probe times it in a fresh
  interpreter, imports included);
* ``warmup()`` runs untimed work first, because the first runs in a
  process are the slow ones;
* ``unit(tracer, clock)`` runs the timed phase once under a
  :class:`~perfbench.calibrate.Stopwatch`, which takes the ``clock``'s
  calibration passes inside it and leaves them out of the measured
  times, and checks its outputs outside the timed part.  Repeating a
  unit repeats identical work.

All of it goes through public entry points (``Session``, ``Machine``,
workload classes, ``FaultPlan``/``FaultInjector``, ``ChaosCampaign``)
on ``MachineConfig`` defaults, in one process, with no worker pool and
no result cache.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.faults import ChaosCampaign, FaultInjector, FaultPlan
from repro.harness import session as session_module
from repro.harness.session import ExperimentSpec, Session
from repro.obs import find_metrics
from repro.sim.config import MachineConfig
from repro.sim.invariants import check_machine
from repro.sim.machine import Machine
from repro.workloads import make_workload
from repro.workloads.serving import chaos_scenarios
from repro.workloads.synthetic import SyntheticWorkload

from perfbench.calibrate import Stopwatch, no_clock
from perfbench.layers import MachineLog, Tracer

#: Recorded ``MachineStats`` digests of every Figure 7 cell.  The SPLASH
#: kernels ignore the seed, so one digest per cell holds for all seeds.
DIGESTS = Path(__file__).with_name("fig7_digests.json")


def stats_digest(stats) -> str:
    """SHA-256 of a run's full ``MachineStats.to_dict()``."""
    text = json.dumps(stats.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def nearest_rank(values, q: float):
    """The nearest-rank ``q``-quantile of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def bucket_quantile(buckets, counts, q: float) -> float:
    """The ``q``-quantile of a log2-bucketed histogram, interpolated
    geometrically inside the bucket that holds it.  (``obs.quantile``
    returns that bucket's upper bound, which doubles when the quantile
    crosses a bound: the kvstore p99 sits near 32,768 cycles and read
    32,768 or 65,536 depending on the seed.)"""
    rank = q * sum(counts)
    seen = 0
    for index, (bound, count) in enumerate(zip(buckets, counts)):
        if count and seen + count >= rank:
            low = buckets[index - 1] if index else bound / 2
            return low * (bound / low) ** ((rank - seen) / count)
        seen += count
    return buckets[-1]


@dataclass
class Unit:
    """One repetition of a workload's timed phase and its checks."""

    #: Measured host seconds of the timed phase.
    wall: float = 0.0
    #: The same in reference seconds, each piece of work scaled by the
    #: calibration passes next to it (see ``calibrate.py``).
    reference: float = 0.0
    #: Reference milliseconds of each round (one application's campaign
    #: cells, hot-loop run, chaos round) inside the timed phase.
    rounds_ms: "list[float]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: "list[str]" = field(default_factory=list)
    #: Simulated references and cycles summed over the unit's runs.
    references: int = 0
    cycles: int = 0
    #: Simulated request figures (see README.md for "request").
    req_p99_cycles: float = 0.0
    req_per_kcycle: float = 0.0
    #: Digest of every simulated output; equal across repeats.
    digest: str = ""

    def timed(self, stopwatch: Stopwatch) -> None:
        """Take the unit's host times from its stopwatch."""
        self.wall = stopwatch.seconds
        self.reference = stopwatch.reference
        self.rounds_ms = stopwatch.rounds_ms

    def fail(self, message: str, units: int = 1) -> None:
        self.failed += units
        self.failures.append(message)


def measure(workload, clock,
            tracer: "Tracer | None" = None) -> "tuple[Unit, MachineLog]":
    """Run one unit under a :class:`MachineLog`."""
    tracer = tracer if tracer is not None else Tracer(False)
    # Every unit starts from the same collector state, so the cyclic
    # garbage collections fall at the same points of every repeat.
    gc.collect()
    with MachineLog(tracer) as log:
        unit = workload.unit(tracer, clock)
    unit.references = sum(refs for refs, _ in log.runs)
    unit.cycles = sum(cycles for _, cycles in log.runs)
    return unit, log


class _CellClock:
    """``Session`` progress hook: ends a stopwatch round at each cell
    and notes the cell's application."""

    def __init__(self, stopwatch: Stopwatch) -> None:
        self.stopwatch = stopwatch
        self.apps: "list[str]" = []

    def expect(self, count: int) -> None:
        pass

    def cell_done(self, workload, policy, seconds, cached) -> None:
        self.apps.append(workload)
        self.stopwatch.lap()

    def note_cache(self, hits, misses) -> None:
        pass


class Fig7Campaign:
    """Figure 7: barnes, ocean and lu under the six paper policies."""

    name = "fig7-campaign"
    apps = ("barnes", "ocean", "lu")
    preset = "tiny"

    def __init__(self, seed: int) -> None:
        # The SPLASH kernels are deterministic; the seed feeds nothing.
        self.seed = seed

    def build(self) -> None:
        Session(jobs=1)
        for app in self.apps:
            machine = Machine(MachineConfig(), policy="scoma")
            make_workload(app, self.preset).setup(machine.layout,
                                                  len(machine.cpus))

    def warmup(self) -> None:
        Session(jobs=1).run_campaign(self.apps, preset=self.preset)

    def unit(self, tracer: Tracer, clock) -> Unit:
        expected = json.loads(DIGESTS.read_text())
        unit = Unit(attempted=len(expected))
        execute = session_module.execute_spec

        def traced_cell(spec):
            with tracer.span("cell", new_trace=True):
                return execute(spec)

        if tracer.enabled:
            session_module.execute_spec = traced_cell
        with Stopwatch(clock) as stopwatch:
            cells = _CellClock(stopwatch)
            try:
                with tracer.span("campaign", new_trace=True):
                    suites = Session(jobs=1, progress=cells).run_campaign(
                        self.apps, preset=self.preset)
            except Exception as exc:                 # noqa: BLE001
                unit.fail("campaign raised %r" % exc, len(expected))
                suites = None
            finally:
                session_module.execute_spec = execute
        unit.timed(stopwatch)
        # A round is one application's six cells: single cells of tens
        # of milliseconds are too short to time steadily on a shared host.
        unit.rounds_ms = [sum(ms for of, ms in zip(cells.apps, unit.rounds_ms)
                              if of == app) for app in self.apps]
        if suites is None:
            return unit
        digests = {"%s/%s" % (app, policy): stats_digest(result.stats)
                   for app, suite in suites.items()
                   for policy, result in suite.results.items()}
        for label, digest in sorted(expected.items()):
            if digests.get(label) != digest:
                unit.fail("%s: stats digest differs from the recorded one"
                          % label)
        lengths = [r.stats.execution_cycles for suite in suites.values()
                   for r in suite.results.values()]
        # A request is one campaign cell (one Machine.run).
        unit.req_p99_cycles = nearest_rank(lengths, 0.99)
        unit.req_per_kcycle = 1000.0 * len(lengths) / sum(lengths)
        unit.digest = hashlib.sha256(
            json.dumps(digests, sort_keys=True).encode()).hexdigest()
        return unit


class HotLoop:
    """L1-sized per-CPU blocks in random order: hit-dominated."""

    name = "hot-loop"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _workload(self) -> SyntheticWorkload:
        # 32 KB over 32 CPUs: each CPU's block fits its L1, so after
        # 1,024 cold misses every reference hits.
        return SyntheticWorkload("block", random_order=True, seed=self.seed,
                                 shared_kb=32)

    def build(self) -> None:
        machine = Machine(MachineConfig(), policy="scoma")
        self._workload().setup(machine.layout, len(machine.cpus))

    def warmup(self) -> None:
        self.unit(Tracer(False), no_clock)

    def unit(self, tracer: Tracer, clock) -> Unit:
        unit = Unit(attempted=1)
        with Stopwatch(clock) as stopwatch:
            try:
                with tracer.span("run", new_trace=True):
                    machine = Machine(MachineConfig(), policy="scoma")
                    result = machine.run(self._workload())
            except Exception as exc:                 # noqa: BLE001
                unit.fail("hot-loop run raised %r" % exc)
                result = None
            stopwatch.lap()
        unit.timed(stopwatch)
        if result is None:
            return unit
        problems = check_machine(machine)
        if problems:
            unit.fail("invariants: %s" % "; ".join(problems))
        cycles = result.stats.execution_cycles
        # A request is one hot-loop run (one Machine.run).
        unit.req_p99_cycles = cycles
        unit.req_per_kcycle = 1000.0 / cycles
        unit.digest = stats_digest(result.stats)
        return unit


class ServingFaults:
    """Faulted Zipfian kvstore plus a seeded 2PC chaos campaign."""

    name = "serving-faults"
    #: Chaos rounds per unit: enough for ten samples beyond p90.
    rounds = 100
    #: The fault plan is drawn from this fixed seed, not the run seed:
    #: plans sampled per seed moved kvstore cost by up to 50% (delay
    #: rules), far beyond any bound, and plans that drop 16% or more of
    #: the coherence traffic exhaust the default retries (seven losses of
    #: one message) and end the run with UnreachableNodeError.  Plan 23
    #: drops 6% of replies and delays requests, pauses a node and
    #: partitions it, so retransmission and hold-and-drain both run.
    plan_seed = 23

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scenarios = tuple(chaos_scenarios().values())
        rng = random.Random(seed)
        self.round_seeds = [rng.randrange(2 ** 31)
                            for _ in range(self.rounds)]
        self.plan = None

    def _kvstore(self):
        workload = make_workload("kvstore", "serving")
        workload.seed = self.seed
        return workload

    def build(self) -> None:
        with obs.collecting():
            machine = Machine(MachineConfig(), policy="scoma",
                              faults=FaultInjector(FaultPlan()))
            self._kvstore().setup(machine.layout, len(machine.cpus))
        scenario = self.scenarios[0]
        machine = Machine(scenario.build_config(), policy=scenario.policy)
        scenario.make_workload().setup(machine.layout, len(machine.cpus))

    def warmup(self) -> None:
        # The fault-free run gives the plan its horizon: the run's
        # simulated length.
        with obs.collecting():
            machine = Machine(MachineConfig(), policy="scoma")
            horizon = machine.run(self._kvstore()).execution_cycles
        self.plan = FaultPlan.sample(random.Random(self.plan_seed),
                                     num_nodes=8, horizon=horizon)
        self._round(0)

    def _round(self, index: int):
        # One run of each scenario: their host times differ by about a
        # third, so rounds of a single scenario would put p50 on the
        # seam between two clusters.
        return ChaosCampaign(seed=self.round_seeds[index],
                             rounds=len(self.scenarios),
                             tests=self.scenarios).run()

    def unit(self, tracer: Tracer, clock) -> Unit:
        unit = Unit(attempted=1 + self.rounds)
        reports = []
        with Stopwatch(clock) as stopwatch:
            try:
                with obs.collecting() as registry, \
                        tracer.span("kvstore", new_trace=True):
                    machine = Machine(MachineConfig(), policy="scoma",
                                      faults=FaultInjector(self.plan,
                                                           seed=self.seed))
                    workload = self._kvstore()
                    result = machine.run(workload)
            except Exception as exc:                 # noqa: BLE001
                unit.fail("kvstore raised %r" % exc)
                result = None
            # The kvstore run is timed but is not a round.
            stopwatch.lap(keep=False)
            for index in range(self.rounds):
                try:
                    with tracer.span("chaos.round", new_trace=True):
                        reports.append(self._round(index))
                except Exception as exc:             # noqa: BLE001
                    reports.append(None)
                    unit.fail("chaos round %d raised %r" % (index, exc))
                stopwatch.lap()
        verdicts = []
        for index, report in enumerate(reports):
            if report is None:
                continue
            verdicts.append(report.verdicts())
            if not report.ok:
                unit.fail("chaos round %d: %s" % (index, report.summary()))
        unit.timed(stopwatch)
        if result is not None:
            self._check_kvstore(unit, machine, workload, result,
                                registry.to_dict())
        unit.digest = hashlib.sha256(json.dumps(
            [unit.digest, verdicts]).encode()).hexdigest()
        return unit

    def _check_kvstore(self, unit, machine, workload, result,
                       snapshot) -> None:
        problems = check_machine(machine)
        if problems:
            unit.fail("kvstore invariants: %s" % "; ".join(problems))
            return
        issued = (len(machine.cpus) * workload.batches
                  * (workload.requests_per_cpu // workload.batches))
        served = sum(value for _, value in find_metrics(
            snapshot["gauges"], "serving.requests_total"))
        if served != issued:
            unit.fail("kvstore served %d of %d requests" % (served, issued))
            return
        hists = [h for _, h in find_metrics(
            snapshot["histograms"], "serving.request_latency_cycles")]
        counts = [sum(c) for c in zip(*(h["counts"] for h in hists))]
        unit.req_p99_cycles = bucket_quantile(hists[0]["buckets"], counts,
                                              0.99)
        cycles = result.stats.execution_cycles
        unit.req_per_kcycle = 1000.0 * served / cycles
        unit.digest = stats_digest(result.stats)


WORKLOADS = {cls.name: cls for cls in (Fig7Campaign, HotLoop, ServingFaults)}
