"""Property test: observers observe, and leave no trace on the machine.

Any subset of the machine's observers — the event recorder, the value
tracker, the causal trace collector, the barrier invariant walks and a
metrics registry — attached to a run must leave ``MachineStats``
byte-identical to a bare run, and once every observer has detached,
every probe slot of the machine must be empty again.
"""

import json
from contextlib import ExitStack

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as some

import repro
from repro import obs
from repro.obs import tracing
from repro.obs.events import PROBE_SLOTS, EventSink, TraceRecorder
from repro.sim.invariants import install_barrier_checks
from repro.sim.machine import Machine
from repro.verify import ValueTracker
from repro.workloads import make_workload

CELLS = (("fft", "scoma"), ("kvstore", "dyn-lru"))
OBSERVERS = ("recorder", "tracker", "collector", "barrier", "registry")

_BARE: "dict[tuple[str, str], str]" = {}


def _run(app: str, policy: str, observers=frozenset()) -> "tuple[str, Machine]":
    with ExitStack() as stack:
        # Registry and collector are process-wide and must be installed
        # before the machine is built; the rest attach to its probes.
        if "registry" in observers:
            stack.enter_context(obs.collecting())
        if "collector" in observers:
            collector = stack.enter_context(tracing.collecting(seed=1))
        machine = Machine(repro.tiny_config(), policy=policy)
        sink = EventSink()
        if "recorder" in observers:
            stack.enter_context(TraceRecorder(machine, sink=sink))
        if "tracker" in observers:
            tracker = ValueTracker(machine, sink)
            stack.callback(tracker.detach)
        if "barrier" in observers:
            hook = install_barrier_checks(machine)
            stack.callback(machine.probes.detach, "barrier", hook)
        if "collector" in observers:
            stack.callback(collector.detach)
        result = machine.run(make_workload(app, "tiny"))
        if observers & {"recorder", "tracker"}:
            assert sink.emitted
    return json.dumps(result.stats.to_dict(), sort_keys=True), machine


def _bare(app: str, policy: str) -> str:
    if (app, policy) not in _BARE:
        _BARE[(app, policy)] = _run(app, policy)[0]
    return _BARE[(app, policy)]


@given(cell=some.sampled_from(CELLS),
       observers=some.frozensets(some.sampled_from(OBSERVERS)))
@example(cell=CELLS[0], observers=frozenset(OBSERVERS))
@example(cell=CELLS[1], observers=frozenset(OBSERVERS))
@settings(max_examples=20, deadline=None)
def test_observers_leave_stats_and_probes_untouched(cell, observers):
    app, policy = cell
    stats, machine = _run(app, policy, observers)
    assert stats == _bare(app, policy)
    for slot in PROBE_SLOTS:
        assert getattr(machine.probes, slot) is None, slot
    assert machine._tracer is None
