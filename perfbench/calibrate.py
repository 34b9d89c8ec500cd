"""Host speed calibration for the benchmark's host-time metrics.

The hosts this benchmark runs on share their cores with other tenants.
On the 2-core Xeon container the bounds were set on, the speed of a
core changed within seconds and sometimes for minutes: identical
0.15 s pieces of simulation took 0.12 s in one second and 0.21 s a few
seconds later, and identical whole runs differed by up to 2x.  Process
CPU time moved with wall time, so the core itself ran slower.  Raw host
times from two runs then say more about the neighbours than about the
code.

So the timed work is cut into pieces of :data:`PIECE_S` seconds by an
interval timer, and between pieces the run times :func:`kernel_seconds`,
a fixed pure-Python kernel with the simulator's hot-path mix (heap
scheduling, dict probes, ``__slots__`` attribute updates, method calls,
an OrderedDict LRU).  Each piece is reported in *reference seconds*:
measured seconds times ``REFERENCE_S`` over the mean of the kernel
times just before and just after it.  The kernel is part of the
benchmark, not of ``repro``, so a change to the simulator cannot move
it.

What was measured on that host (ten seeds, 20 s runs), as the quartile
spread of ``wall_s`` on ``fig7-campaign``: raw seconds 39%; one factor
per run (the median kernel time over the run) 20%; each campaign cell
scaled by the passes at its ends 8%; pieces of 0.1 s, with the whole
run pinned to one core so that passes and pieces share it, 4-8% over
three sets.  The run prints the measured figures beside the reference
ones.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
from collections import OrderedDict
from time import perf_counter

#: Kernel time on the reference host when it was quiet (the fastest of
#: about 200 samples on the 2-core Xeon container, rounded).  Only the
#: scale of the reported seconds depends on it.
REFERENCE_S = 0.014

#: Measured seconds of work between calibrations inside timed work.
PIECE_S = 0.1


class _Cpu:
    __slots__ = ("time", "hits")

    def __init__(self) -> None:
        self.time = 0
        self.hits = 0

    def step(self, key: int, table: dict) -> int:
        if table.get(key) is None:
            table[key] = self.time & 3
            return 12
        self.hits += 1
        return 1


def _keys(count: int):
    for i in range(count):
        yield (i * 2654435761) & 4095


def kernel_seconds(steps: int = 12_000) -> float:
    """Host seconds of one pass of the fixed calibration kernel, with
    the garbage collector off (a collection of the simulator's garbage
    would be charged to the pass)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel_pass(steps)
    finally:
        if enabled:
            gc.enable()


def _kernel_pass(steps: int) -> float:
    start = perf_counter()
    table: "dict[int, int]" = {}
    heap = [(0, cpu) for cpu in range(32)]
    cpus = [_Cpu() for _ in range(32)]
    lru: "OrderedDict[int, int]" = OrderedDict()
    for key in _keys(steps):
        now, cid = heapq.heappop(heap)
        cpu = cpus[cid]
        cpu.time = now + cpu.step(key, table)
        heapq.heappush(heap, (cpu.time, cid))
        if key in lru:
            lru.move_to_end(key)
        else:
            lru[key] = now
            if len(lru) > 512:
                lru.popitem(last=False)
    return perf_counter() - start


class HostClock:
    """The calibration passes of one run."""

    def __init__(self, passes: int = 2) -> None:
        self.passes = passes
        self.samples: "list[float]" = []

    def __call__(self) -> float:
        """Take the passes; returns their median kernel seconds."""
        passes = [kernel_seconds() for _ in range(self.passes)]
        self.samples.extend(passes)
        return statistics.median(passes)


def no_clock() -> None:
    """A clock that times nothing, for warm-ups and profiled work
    (passes inside a profiled unit would be profiled too)."""


class Stopwatch:
    """Measured host time of timed work, without the calibration passes
    taken inside it, and the same in reference seconds.

    While active (``with Stopwatch(clock) as stopwatch:``), an interval
    timer interrupts the work every :data:`PIECE_S` seconds and takes
    the clock's calibration passes there, so the work is cut into short
    *pieces*.  Each piece is converted to reference seconds with the
    passes just before and just after it: the host's speed changes
    within a second, and only passes that close follow it.  With
    ``no_clock`` there is no timer and reference seconds equal measured
    ones.  :meth:`lap` ends a *round* (a campaign cell, a run, a chaos
    round); a round that spans pieces is scaled piece by piece.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        # Reference seconds per measured second, one per piece.
        self._factors: "list[float]" = []
        self._seconds: "list[float]" = []
        self._rounds: "list[list[tuple[int, float]]]" = []
        self._open: "list[tuple[int, float]]" = []
        self._before = None
        self._mark = 0.0
        self._running = False
        self._handler = None

    def __enter__(self) -> "Stopwatch":
        self._before = self.clock()
        if self._before is not None:
            self._handler = signal.signal(signal.SIGALRM, self._alarm)
            self._running = True
            signal.setitimer(signal.ITIMER_REAL, PIECE_S)
        self._mark = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._running:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self._piece()

    def _alarm(self, _signum, _frame) -> None:
        if self._running:
            self._piece()
            signal.setitimer(signal.ITIMER_REAL, PIECE_S)

    def _segment(self) -> None:
        now = perf_counter()
        piece = len(self._factors)
        if piece == len(self._seconds):
            self._seconds.append(0.0)
        self._seconds[piece] += now - self._mark
        self._open.append((piece, now - self._mark))
        self._mark = now

    def _piece(self) -> None:
        self._segment()
        after = self.clock()
        self._factors.append(1.0 if after is None else
                            2.0 * REFERENCE_S / (self._before + after))
        self._before = after
        self._mark = perf_counter()

    def lap(self, keep: bool = True) -> None:
        """End the current round; ``keep=False`` leaves it out of the
        rounds (its time still counts)."""
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._segment()
            if keep:
                self._rounds.append(self._open)
            self._open = []
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    @property
    def seconds(self) -> float:
        """Measured seconds of all the timed work."""
        return sum(self._seconds)

    @property
    def reference(self) -> float:
        """Reference seconds of all the timed work."""
        return sum(s * f for s, f in zip(self._seconds, self._factors))

    @property
    def rounds_ms(self) -> "list[float]":
        """Reference milliseconds of each round."""
        return [1000.0 * sum(s * self._factors[p] for p, s in r)
                for r in self._rounds]
