"""Tests for the per-node kernel: faults, page-outs, mode changes."""

import pytest

from repro.core.finegrain import Tag
from repro.core.modes import PageMode
from repro.kernel.frames import is_imaginary
from repro.sim.invariants import check_machine

from tests.conftest import Harness, protocol_config


class TestFaults:
    def test_private_fault_allocates_local_frame(self, harness):
        h = harness
        h.read(0, h.private.vbase)
        node = h.node(0)
        vpage = h.private.vbase // h.machine.config.page_bytes
        frame = node.kernel.page_table[vpage]
        entry = node.pit.entry_or_none(frame)
        assert entry.mode == PageMode.LOCAL
        assert node.stats.page_faults_local_home == 1

    def test_home_fault_tags_exclusive(self, harness):
        h = harness
        page = h.page_homed_at(2)
        h.read(h.cpu_on_node(2), h.vaddr(page))
        entry = h.entry_at(2, page)
        assert entry.mode == PageMode.SCOMA
        assert entry.tags.get(0) == Tag.EXCLUSIVE
        assert h.node(2).directory.page(h.gpage(page)) is not None

    def test_client_fault_registers_with_home(self, harness):
        h = harness
        page = h.page_homed_at(2)
        h.read(h.cpu_on_node(0), h.vaddr(page))
        dir_page = h.node(2).directory.page(h.gpage(page))
        assert 0 in dir_page.clients
        assert h.node(0).stats.page_faults_remote_home == 1

    def test_client_fault_costs_more_than_local(self, harness):
        h = harness
        lat = h.machine.config.latency
        t_local = h.read(0, h.private.vbase)
        t_remote = h.read(h.cpu_on_node(0), h.vaddr(h.page_homed_at(2)))
        assert t_remote - t_local >= (lat.expected_fault_remote
                                      - lat.expected_fault_local) * 0.5

    def test_home_status_flag_skips_home_roundtrip(self):
        h = Harness(policy="dyn-lru",
                    config=protocol_config(home_status_flags=True),
                    page_cache_override=[2, 2, 2, 2])
        page_a = h.page_homed_at(1, skip=0)
        page_b = h.page_homed_at(1, skip=1)
        page_c = h.page_homed_at(1, skip=2)
        cpu = h.cpu_on_node(0)
        h.read(cpu, h.vaddr(page_a))
        h.read(cpu, h.vaddr(page_b))
        remote_faults = h.node(0).stats.page_faults_remote_home
        # Third page evicts page_a (LRU, demoted); re-faulting page_a
        # must not contact the home again (flag set).
        h.read(cpu, h.vaddr(page_c))
        h.read(cpu, h.vaddr(page_a))
        assert h.node(0).stats.page_faults_remote_home == remote_faults + 1

    def test_unmapped_address_segfaults(self, harness):
        with pytest.raises(RuntimeError, match="segmentation fault"):
            harness.read(0, 0)  # page 0 is never mapped


class TestPageOut:
    def test_page_out_flushes_and_frees(self, harness):
        h = harness
        page = h.page_homed_at(1)
        cpu = h.cpu_on_node(0)
        h.read(cpu, h.vaddr(page, 0))
        h.write(cpu, h.vaddr(page, 1))
        node = h.node(0)
        entry = h.entry_at(0, page)
        frame = entry.frame
        node.kernel.page_out_client(frame, h.clock)
        assert node.pit.entry_or_none(frame) is None
        assert h.entry_at(0, page) is None
        # Owned (tag E) line written back; home owns everything again.
        from repro.core.directory import DirState
        assert h.dir_line(page, 1).state == DirState.HOME_EXCL
        assert h.entry_at(1, page).tags.get(1) == Tag.EXCLUSIVE
        assert node.stats.client_page_outs == 1
        assert check_machine(h.machine) == []

    def test_lanuma_page_out_leaves_directory_without_local_copies(self):
        # A tagless (LA-NUMA) frame: the flush finds its lines through
        # the directory, so it must also clear a sharer or owner entry
        # whose data no local CPU still caches.
        from repro.core.directory import DirState
        h = Harness(policy="lanuma")
        page = h.page_homed_at(1)
        cpu = h.cpu_on_node(0)
        h.read(cpu, h.vaddr(page, 0))
        h.write(cpu, h.vaddr(page, 1))
        h.read(cpu, h.vaddr(page, 2))
        node = h.node(0)
        entry = h.entry_at(0, page)
        assert entry.tags is None
        for lip in (0, 1):   # silently lose the local copies
            line = entry.frame * h.machine.config.lines_per_page + lip
            h.machine.cpus[cpu].hierarchy.invalidate(line)
            node.presence.drop_line(line)
        assert 0 in h.dir_line(page, 0).sharers
        assert h.dir_line(page, 1).owner == 0
        node.kernel.page_out_client(entry.frame, h.clock)
        for lip in (0, 1, 2):
            dl = h.dir_line(page, lip)
            assert 0 not in dl.sharers
            assert dl.state == DirState.HOME_EXCL and dl.owner == -1
        # The owned line went home even with no dirty local copy.
        assert node.stats.writebacks_remote == 1

    def test_page_out_invalidates_local_tlbs_only(self, harness):
        h = harness
        page = h.page_homed_at(1)
        vaddr = h.vaddr(page, 0)
        vpage = vaddr // h.machine.config.page_bytes
        h.read(h.cpu_on_node(0, 0), vaddr)
        h.read(h.cpu_on_node(0, 1), vaddr)
        h.read(h.cpu_on_node(2, 0), vaddr)
        entry = h.entry_at(0, page)
        h.node(0).kernel.page_out_client(entry.frame, h.clock)
        assert vpage not in h.machine.cpus[h.cpu_on_node(0, 0)].tlb
        assert vpage not in h.machine.cpus[h.cpu_on_node(0, 1)].tlb
        # The other node's translation is untouched: no global shootdown.
        assert vpage in h.machine.cpus[h.cpu_on_node(2, 0)].tlb

    def test_demote_sets_mode_override(self, harness):
        h = harness
        page = h.page_homed_at(1)
        cpu = h.cpu_on_node(0)
        h.read(cpu, h.vaddr(page, 0))
        entry = h.entry_at(0, page)
        h.node(0).kernel.page_out_client(entry.frame, h.clock, demote=True)
        assert (h.node(0).kernel.page_mode_override[h.gpage(page)]
                == PageMode.LANUMA)
        # Next fault maps the page with an imaginary frame.
        h.read(cpu, h.vaddr(page, 0))
        assert is_imaginary(h.entry_at(0, page).frame)
        assert h.node(0).stats.mode_demotions == 1

    def test_page_out_of_home_frame_rejected(self, harness):
        h = harness
        page = h.page_homed_at(1)
        h.read(h.cpu_on_node(1), h.vaddr(page))
        entry = h.entry_at(1, page)
        with pytest.raises(ValueError):
            h.node(1).kernel.page_out_client(entry.frame, h.clock)

    def test_page_out_unmapped_frame_rejected(self, harness):
        with pytest.raises(KeyError):
            harness.node(0).kernel.page_out_client(12345, 0)


class TestLru:
    def test_lru_order_tracks_page_cache_hits(self, harness):
        h = harness
        cpu = h.cpu_on_node(0)
        page_a = h.page_homed_at(1, skip=0)
        page_b = h.page_homed_at(1, skip=1)
        h.read(cpu, h.vaddr(page_a, 0))
        h.read(cpu, h.vaddr(page_b, 0))
        kernel = h.node(0).kernel
        assert kernel.lru_client_frame() == h.entry_at(0, page_a).frame
        # A page-cache hit on page_a refreshes it; page_b becomes LRU.
        h.read(cpu, h.vaddr(page_a, 1))
        assert kernel.lru_client_frame() == h.entry_at(0, page_b).frame
