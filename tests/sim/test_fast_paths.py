"""Tests pinning down the reference-path fast paths.

The hot-path work (TLB memo, flat cache probe, dense PIT, reference
blocks, inlined resource arithmetic) must be *invisible* in simulated
results: these tests assert determinism across back-to-back runs and
exact equivalence between reference-block workloads and their
per-reference expansion.
"""

import random

import pytest

from repro.core.modes import PageMode
from repro.core.pit import PageInformationTable
from repro.kernel.frames import IMAGINARY_BASE
from repro.sim.config import tiny_config
from repro.sim.engine import LockTable
from repro.sim.machine import Machine
from repro.sim.ops import OP_READ, OP_REFS, OP_WRITE, expand_op
from repro.workloads import make_workload
from repro.workloads.base import SharedArray, Workload, refs
from repro.workloads.synthetic import SyntheticWorkload


def run_stats(workload_factory, policy):
    machine = Machine(tiny_config(), policy=policy)
    return machine.run(workload_factory()).stats.to_dict()


class TestDeterminism:
    """Two identical runs must produce identical stats dicts."""

    @pytest.mark.parametrize("app,policy", [
        ("fft", "scoma"),
        ("lu", "lanuma"),
        ("fft", "dyn-lru"),
    ])
    def test_back_to_back_runs_identical(self, app, policy):
        first = run_stats(lambda: make_workload(app, preset="tiny"), policy)
        second = run_stats(lambda: make_workload(app, preset="tiny"), policy)
        assert first == second

    def test_synthetic_back_to_back_identical(self):
        make = lambda: SyntheticWorkload("random", shared_kb=32,
                                         refs_per_cpu_per_iter=400,
                                         iterations=2)
        assert run_stats(make, "lanuma") == run_stats(make, "lanuma")


class ExpandedWorkload(Workload):
    """Wraps a workload, expanding every reference block to single
    references.

    Running the wrapped and expanded versions through the same machine
    configuration must give byte-identical stats — reference blocks are
    pure op-stream compression.
    """

    name = "expanded"

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.problem = getattr(inner, "problem", "")
        if hasattr(inner, "cycles_per_ref"):
            # The machine reads the per-reference gap off the workload.
            self.cycles_per_ref = inner.cycles_per_ref

    def setup(self, layout, num_cpus):
        self.inner.setup(layout, num_cpus)

    def generator(self, cpu_id, num_cpus):
        for op in self.inner.generator(cpu_id, num_cpus):
            yield from expand_op(op)


class TestRunOpEquivalence:
    @pytest.mark.parametrize("app", ["fft", "lu", "ocean", "kvstore"])
    def test_app_runs_equal_expansion(self, app):
        fused = run_stats(lambda: make_workload(app, preset="tiny"), "scoma")
        expanded = run_stats(
            lambda: ExpandedWorkload(make_workload(app, preset="tiny")),
            "scoma")
        assert fused == expanded

    def test_synthetic_runs_equal_expansion(self):
        make = lambda: SyntheticWorkload("block", shared_kb=32,
                                         refs_per_cpu_per_iter=500,
                                         iterations=2)
        fused = run_stats(make, "lanuma")
        expanded = run_stats(lambda: ExpandedWorkload(make()), "lanuma")
        assert fused == expanded

    def test_workloads_actually_emit_runs(self):
        wl = make_workload("fft", preset="tiny")
        wl.setup(_Layout(), 2)
        blocks = [op for op in wl.generator(0, 2) if op[0] == OP_REFS]
        assert any(any(op[2]) for op in blocks)
        assert any(not any(op[2]) for op in blocks)


class TestRefBlocks:
    def test_expand_op_round_trip(self):
        rng = random.Random(7)
        singles = []
        addr = 1000
        for _ in range(300):
            kind = OP_WRITE if rng.random() < 0.3 else OP_READ
            addr += rng.choice((0, 8, 8, 8, 64, -8))
            singles.append((kind, addr))
        block = refs([a for _k, a in singles],
                     [k == OP_WRITE for k, _a in singles])
        assert expand_op(block) == singles

    def test_read_run_is_one_range_block(self):
        array = SharedArray(_Layout(), key=1, num_elems=64, elem_bytes=8)
        op = array.read_run(2, 8, stride=4)
        assert op[0] == OP_REFS and isinstance(op[1], range)
        assert expand_op(op) == [(OP_READ, 16 + 32 * i) for i in range(8)]
        assert expand_op(array.write_run(0, 3)) == [
            (OP_WRITE, 0), (OP_WRITE, 8), (OP_WRITE, 16)]

    def test_preempted_block_resumes_where_it_stopped(self):
        # Every CPU sweeps the same array: their block references
        # interleave in clock order, so blocks are preempted mid-way;
        # the result must still equal the one-op-per-reference run.
        make = lambda: _TwoBlocks()
        blocks = run_stats(make, "scoma")
        singles = run_stats(lambda: ExpandedWorkload(make()), "scoma")
        assert blocks == singles
        assert blocks["cpus"][0]["references"] == 2 * 48


class _Layout:
    page_bytes = 4096

    def __init__(self):
        self.base = 0

    def attach_shared(self, key, size_bytes):
        return self.add_private(size_bytes)

    def add_private(self, size_bytes):
        region = type("R", (), {"vbase": self.base})()
        self.base += ((size_bytes + 4095) // 4096) * 4096
        return region


class _TwoBlocks(Workload):
    """Every CPU sweeps one shared array twice, as two big blocks."""

    name = "two-blocks"

    def setup(self, layout, num_cpus):
        self.array = SharedArray(layout, key=77, num_elems=48,
                                 elem_bytes=32)

    def generator(self, cpu_id, num_cpus):
        yield self.array.read_run(0, 48)
        yield refs([self.array.addr(i) for i in range(48)],
                   [i % 3 == cpu_id % 3 for i in range(48)])


class TestDensePit:
    def test_dense_table_tracks_install_and_remove(self):
        pit = PageInformationTable(node_id=0, lines_per_page=8)
        entry = pit.install(frame=5, gpage=40, static_home=1,
                            dynamic_home=1, home_frame=None,
                            mode=PageMode.LANUMA)
        assert pit.entry_or_none(5) is entry
        assert pit.entry_or_none(6) is None
        pit.remove(5)
        assert pit.entry_or_none(5) is None

    def test_imaginary_frames_use_their_own_table(self):
        pit = PageInformationTable(node_id=0, lines_per_page=8)
        frame = IMAGINARY_BASE + 3
        entry = pit.install(frame=frame, gpage=41, static_home=1,
                            dynamic_home=1, home_frame=None,
                            mode=PageMode.LANUMA)
        assert pit.entry_or_none(frame) is entry
        assert pit.entry_or_none(3) is None  # real frame 3 unrelated
        pit.remove(frame)
        assert pit.entry_or_none(frame) is None


class TestLockTableFifo:
    def test_contended_handoff_is_fifo(self):
        table = LockTable(cost=2)
        assert table.acquire(9, cpu_id=0, now=10) == 12
        for waiter in (1, 2, 3):
            assert table.acquire(9, cpu_id=waiter, now=20) is None
        order = []
        holder = 0
        for _ in range(3):
            nxt, _when = table.release(9, holder, now=50)
            order.append(nxt)
            holder = nxt
        assert order == [1, 2, 3]
        assert table.release(9, holder, now=60) is None
