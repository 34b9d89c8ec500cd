"""Self-tests of the benchmark: determinism, seeding, exact counts, and
planted defects the benchmark must catch.

    python3 -m pytest perfbench/tests -q      # about 6 minutes

Each workload is run in-process through the same functions ``run.py``
uses.  Defects are planted with ``monkeypatch`` and never written into
the source.
"""

import json
import textwrap

import pytest

from perfbench import run
from perfbench.calibrate import no_clock
from perfbench.layers import LAYERS
from perfbench.suite import WORKLOADS, measure

from repro.core import controller
from repro.sim.latency import LatencyModel

SEED, OTHER_SEED = 11, 12
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
# Host-time metrics among the per-layer ones (everything else is exact).
HOST_TIMED = ({"%s.self_s" % layer for layer in LAYERS}
              | {"other.self_s", "sim.machine_build_s", "verify.check_s",
                 "trace_overhead"})

_traced_runs = {}


def traced(name, seed, repeat=0):
    """``traced_metrics`` of one workload, cached per (name, seed, repeat)."""
    key = (name, seed, repeat)
    if key not in _traced_runs:
        _traced_runs[key] = run.traced_metrics(WORKLOADS[name](seed), seed)
    return _traced_runs[key]


def simulated(name, seed):
    """The simulated outputs of one warmed-up unit."""
    workload = WORKLOADS[name](seed)
    workload.warmup()
    return measure(workload, no_clock)[0]


def test_host_timed_metrics_are_the_ones_in_seconds():
    in_seconds = {m["name"] for m in BENCHMARK["per_layer"]
                  if m["unit"] == "s"}
    assert in_seconds | {"trace_overhead"} == HOST_TIMED


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_simulation_and_exact_counts(name):
    first_metrics, first_units, first_ok, _ = traced(name, SEED, 0)
    second_metrics, second_units, second_ok, _ = traced(name, SEED, 1)
    assert first_ok and second_ok
    assert all(unit.failed == 0 for unit in first_units + second_units)
    exact = sorted(set(first_metrics) - HOST_TIMED)
    assert exact, "no exact per-layer metrics"
    for key in exact:
        assert first_metrics[key] == second_metrics[key], key
    plain, again = first_units[0], second_units[0]
    for field in ("cycles", "references", "req_p99_cycles",
                  "req_per_kcycle", "digest", "attempted"):
        assert getattr(plain, field) == getattr(again, field), field
    # Every exact count of the campaign is populated where it should be.
    if name == "fig7-campaign":
        assert first_metrics["harness.cells"] == 18
        assert first_metrics["core.fetch_calls"] > 10_000
        assert first_metrics["kernel.page_out_calls"] > 0
    if name == "serving-faults":
        assert first_metrics["faults.retransmissions"] > 0
        assert first_metrics["verify.events"] > 0


@pytest.mark.parametrize("name,moves", [("fig7-campaign", False),
                                        ("hot-loop", True),
                                        ("serving-faults", True)])
def test_seed_changes_only_seeded_workloads(name, moves):
    base = traced(name, SEED, 0)[1][0]
    other = simulated(name, OTHER_SEED)
    assert other.failed == 0
    assert (other.cycles != base.cycles) is moves


def test_changed_latency_constant_fails_the_digest_check(monkeypatch):
    init = LatencyModel.__init__

    def slower_network(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.net_latency += 1

    monkeypatch.setattr(LatencyModel, "__init__", slower_network)
    unit = simulated("fig7-campaign", SEED)
    assert unit.failed > 0
    assert (unit.attempted - unit.failed) / unit.attempted < 1.0


def _plant_fetch_delay(monkeypatch, spins):
    """Burn a fixed amount of work (``spins`` empty loop turns; 3,000
    take about 40 reference microseconds) at every ``Controller.fetch``
    call: about +80% on fig7-campaign's 43,976 calls, +9% on hot-loop's
    1,564.  The wrapper is compiled under controller.py's file name so the profiler
    charges the wasted time to the core layer, as for a real defect."""
    source = textwrap.dedent("""
        def fetch(self, *args):
            for _ in range(SPINS):
                pass
            return original(self, *args)
    """)
    scope = {"SPINS": spins,
             "original": controller.CoherenceController.fetch}
    exec(compile(source, controller.__file__, "exec"), scope)
    monkeypatch.setattr(controller.CoherenceController, "fetch",
                        scope["fetch"])


def test_fetch_delay_shows_on_fig7_not_on_hot_loop(monkeypatch):
    def timed(name):
        return run.timed_metrics(WORKLOADS[name](SEED), SEED, 8)[0]

    base_layers = traced("fig7-campaign", SEED, 0)[0]
    base, hot_base = timed("fig7-campaign"), timed("hot-loop")
    _plant_fetch_delay(monkeypatch, 3000)
    layers = run.traced_metrics(WORKLOADS["fig7-campaign"](SEED), SEED)[0]
    slow, hot = timed("fig7-campaign"), timed("hot-loop")
    bound = BOUNDS["wall_s"]
    assert slow["wall_s"] > base["wall_s"] * (1 + bound)
    assert layers["core.self_s"] > base_layers["core.self_s"] * (1 + bound)
    assert hot["wall_s"] <= hot_base["wall_s"] * (1 + bound)
