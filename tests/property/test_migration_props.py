"""Property tests: random migrate/read/write interleavings keep the
machine coherent.

Drives a small S-COMA machine with Hypothesis-generated sequences of
per-CPU reads/writes and explicit home migrations, and asserts after
every step that

* PIT forward and reverse mappings agree on every node,
* the page's *static* home never moves while the *dynamic* home always
  matches the node actually holding the directory (the static-home
  forwarding contract: a stale client can always be rerouted), and
* at the end, the full machine-wide invariant walk is clean and every
  recorded read observed the latest write (value coherence).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as some

from repro.obs.events import EventSink
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.invariants import check_machine
from repro.sim.machine import Machine
from repro.verify import ValueTracker, check_history

pytestmark = pytest.mark.verify

NODES = 3
PAGES = 2
GAP = 1_000_000


def _config() -> MachineConfig:
    return MachineConfig(
        num_nodes=NODES,
        cpus_per_node=1,
        page_bytes=256,
        line_bytes=32,
        l1=CacheConfig(256, 32, 2),
        l2=CacheConfig(512, 32, 2),
        tlb_entries=8,
        directory_cache_entries=64,
        enable_migration=True,
        migration_threshold=4)


ops = some.lists(
    some.one_of(
        some.tuples(some.just("access"),
                    some.integers(0, NODES - 1),   # cpu
                    some.integers(0, PAGES - 1),   # page
                    some.integers(0, 3),           # line in page
                    some.booleans()),              # write?
        some.tuples(some.just("migrate"),
                    some.integers(0, PAGES - 1),   # page
                    some.integers(0, NODES - 1))), # target node
    min_size=1, max_size=40)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_random_interleavings_preserve_coherence(sequence):
    machine = Machine(_config())
    region = machine.layout.attach_shared(
        key=1, size_bytes=PAGES * machine.config.page_bytes)
    sink = EventSink()
    tracker = ValueTracker(machine, sink)
    static_homes = {p: machine.static_home_of(region.gpage_base + p)
                    for p in range(PAGES)}
    clock = 0
    try:
        for op in sequence:
            clock += GAP
            if op[0] == "access":
                _kind, cpu, page, lip, write = op
                vaddr = (region.vbase + page * machine.config.page_bytes
                         + lip * machine.config.line_bytes)
                machine.access(machine.cpus[cpu], vaddr, write, clock)
            else:
                _kind, page, target = op
                gpage = region.gpage_base + page
                home = machine.dynamic_home_of(gpage)
                if machine.nodes[home].directory.page(gpage) is None:
                    continue  # page never faulted: nothing to migrate
                machine.migration.migrate(gpage, target)
            for page in range(PAGES):
                gpage = region.gpage_base + page
                # The static home is a pure function of the address —
                # migration must never move it (forwarding depends on
                # it as the always-reachable rendezvous).
                assert machine.static_home_of(gpage) == static_homes[page]
                dyn = machine.dynamic_home_of(gpage)
                dir_holders = [n.node_id for n in machine.nodes
                               if n.directory.page(gpage) is not None]
                assert dir_holders in ([], [dyn]), \
                    ("directory for gpage %d at %r but dynamic home is %d"
                     % (gpage, dir_holders, dyn))
            assert _pit_maps_consistent(machine)
    finally:
        tracker.detach()
    assert check_machine(machine) == []
    # The tracker saw every hand-driven reference, so the value check
    # below is not vacuous.
    assert sink.emitted == sum(op[0] == "access" for op in sequence)
    assert check_history(sink.events, machine._line_shift) == []


def _pit_maps_consistent(machine) -> bool:
    for node in machine.nodes:
        for entry in node.pit.frames():
            if entry.mode.is_global:
                if node.pit._by_gpage.get(entry.gpage) != entry.frame:
                    return False
    return True


@given(some.lists(some.integers(0, NODES - 1), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_stale_clients_are_forwarded_after_migration_chains(targets):
    """After any chain of migrations, a client that still holds its
    original translation can access the page — the static home reroutes
    its request — and observes the current data."""
    machine = Machine(_config())
    region = machine.layout.attach_shared(
        key=1, size_bytes=machine.config.page_bytes)
    gpage = region.gpage_base
    vaddr = region.vbase
    clock = GAP
    # Every node pages the translation in once.
    for cpu in machine.cpus:
        machine.access(cpu, vaddr, False, clock)
        clock += GAP
    for target in targets:
        machine.migration.migrate(gpage, target)
        assert machine.dynamic_home_of(gpage) == target
    final_home = machine.dynamic_home_of(gpage)
    # A write from the node farthest from the action still succeeds and
    # leaves a coherent machine: stale PIT entries were forwarded.
    writer = machine.cpus[(final_home + 1) % NODES]
    machine.access(writer, vaddr, True, clock)
    assert check_machine(machine) == []
