"""Tests for the event recorder (a probe subscriber) and the resource
report."""

import pytest

import repro
from repro.obs.events import EventSink, TraceRecorder, validate_event
from repro.sim.machine import Machine
from repro.workloads import make_workload


def run_traced(policy="scoma", kinds=None, cap=None, migration=False,
               app="water-spa"):
    cfg = repro.tiny_config(page_cache_frames=cap,
                            enable_migration=migration,
                            migration_threshold=16)
    machine = Machine(cfg, policy=policy)
    with TraceRecorder(machine, kinds=kinds) as trace:
        machine.run(make_workload(app, "tiny"))
    return machine, trace


def of_kind(trace, kind):
    return [e for e in trace.sink.events if e["kind"] == kind]


def test_records_accesses_and_faults():
    machine, trace = run_traced(kinds={"access", "fault"})
    summary = trace.sink.summary()
    assert summary["access"] == machine.stats.references
    assert summary["fault"] == machine.stats.page_faults
    assert summary["dropped"] == 0


def test_access_events_have_positive_latency():
    _, trace = run_traced(kinds={"access"})
    assert all(e["latency"] >= 1 for e in of_kind(trace, "access"))


def test_fault_events_classify_home():
    _, trace = run_traced(kinds={"fault"})
    faults = of_kind(trace, "fault")
    assert any(e["remote_home"] for e in faults)
    assert any(not e["remote_home"] for e in faults)
    assert any(e["mode"] == "LOCAL" for e in faults)
    assert any(e["mode"] == "SCOMA" for e in faults)


def test_pageouts_traced_under_capped_policy():
    machine, trace = run_traced(policy="dyn-lru", cap=3,
                                kinds={"pageout"})
    pageouts = of_kind(trace, "pageout")
    assert len(pageouts) == sum(
        n.client_page_outs + n.mode_promotions for n in machine.stats.nodes)
    assert any(e["demoted"] for e in pageouts)


def test_promotions_traced_under_dyn_bidir():
    machine, trace = run_traced(policy="dyn-bidir", cap=3,
                                kinds={"promote"}, app="kvstore")
    promotions = sum(n.mode_promotions for n in machine.stats.nodes)
    assert promotions > 0
    assert len(of_kind(trace, "promote")) == promotions


def test_migrations_traced():
    machine, trace = run_traced(kinds={"migrate"}, migration=True)
    migrations = of_kind(trace, "migrate")
    assert len(migrations) == machine.migration.migrations > 0


def test_migrate_events_name_the_previous_home():
    machine, trace = run_traced(kinds={"migrate"}, migration=True)
    homes = {}
    for event in of_kind(trace, "migrate"):
        gpage = event["gpage"]
        previous = homes.get(gpage, machine.static_home_of(gpage))
        assert event["old_home"] == previous
        assert event["old_home"] != event["new_home"]
        homes[gpage] = event["new_home"]
    for gpage, home in homes.items():
        assert machine.dynamic_home_of(gpage) == home


def test_noop_migration_is_not_recorded():
    machine, _ = run_traced(kinds=set(), migration=True)
    gpage = next(iter(machine.migration.dynamic_home))
    with TraceRecorder(machine, kinds={"migrate"}) as trace:
        machine.migration.migrate(gpage, machine.dynamic_home_of(gpage))
    assert trace.sink.events == []


def test_detach_restores_hot_path():
    machine, trace = run_traced(kinds={"access"})
    assert machine.probes.access is None
    assert "_access" not in machine.__dict__


def test_max_events_drops_excess():
    cfg = repro.tiny_config()
    machine = Machine(cfg, policy="scoma")
    with TraceRecorder(machine, kinds={"access"}, max_events=10) as trace:
        machine.run(make_workload("water-spa", "tiny"))
    assert len(trace.sink.events) == 10
    assert trace.sink.dropped > 0


def test_ring_buffer_keeps_newest_events():
    # The capped recorder's window must be the *tail* of the full
    # trace, and dropped must account exactly for the rest.
    full = run_traced(kinds={"access"})[1]
    cfg = repro.tiny_config()
    machine = Machine(cfg, policy="scoma")
    with TraceRecorder(machine, kinds={"access"}, max_events=10) as trace:
        machine.run(make_workload("water-spa", "tiny"))
    assert trace.sink.events == full.sink.events[-10:]
    assert trace.sink.dropped == len(full.sink.events) - 10


def test_sink_forwarding_produces_schema_valid_events():
    cfg = repro.tiny_config(page_cache_frames=3)
    machine = Machine(cfg, policy="dyn-lru")
    sink = EventSink()
    with TraceRecorder(machine, sink=sink) as trace:
        machine.run(make_workload("water-spa", "tiny"))
    assert trace.sink is sink
    assert sink.dropped == 0
    kinds = set()
    for event in sink.events:
        validate_event(event)
        kinds.add(event["kind"])
    assert {"access", "fault", "pageout"} <= kinds
    seqs = [e["seq"] for e in sink.events]
    assert seqs == sorted(seqs)


def test_csv_export():
    _, trace = run_traced(kinds={"fault"})
    csv = trace.sink.to_csv()
    assert csv.startswith("# fault")
    assert "seq,gpage,mode,node,remote_home,time,vpage" in csv


def test_unknown_kind_rejected():
    machine = Machine(repro.tiny_config())
    with pytest.raises(ValueError):
        TraceRecorder(machine, kinds={"access", "vibes"})


def test_resource_report():
    cfg = repro.tiny_config()
    machine = Machine(cfg, policy="scoma")
    machine.run(make_workload("water-spa", "tiny"))
    report = machine.resource_report()
    assert all(0.0 <= v <= 1.0 for v in report.values())
    assert "node0.ctrl" in report
    hottest = machine.hottest_resources(3)
    assert len(hottest) == 3
    assert hottest[0][1] >= hottest[1][1] >= hottest[2][1]
