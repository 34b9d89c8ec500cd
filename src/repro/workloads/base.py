"""Workload framework: SPLASH-style reference generators.

The paper drives its simulator with SPLASH-I/II applications under
Augmint (execution-driven simulation of compiled binaries).  This
reproduction replaces that with *application kernels*: Python
implementations of the same algorithms' traversals that emit, per
simulated CPU, the stream of memory references (virtual address,
read/write), compute gaps, barriers and locks the algorithm performs.
Problem sizes are scaled together with the machine's caches (see
DESIGN.md section 2) so the capacity regimes match the paper's.

A workload:

* builds its shared segments and private regions in :meth:`setup`
  (globalized shmget/shmat through the machine's layout — this is the
  "global binding" step, outside the measured parallel phase);
* yields ops from :meth:`generator` for each CPU (the parallel phase).

Addresses are plain integers in the (machine-wide) virtual address
space; :class:`SharedArray` and :class:`PrivateArray` provide element
-> address arithmetic.  A kernel builds its addresses one bounded chunk
at a time (a row, an iteration, a request batch) and yields each chunk
as one reference block (:func:`refs`, ``read_run``/``write_run``).
"""

from __future__ import annotations

from repro.sim.ops import (OP_BARRIER, OP_COMPUTE, OP_LOCK, OP_READ,
                           OP_REFS, OP_UNLOCK, OP_WRITE)


class ElementArray:
    """Element -> address arithmetic and reference ops over an array.

    The common base of :class:`SharedArray` and :class:`PrivateArray`.
    """

    __slots__ = ("vbase", "elem_bytes", "num_elems")

    def addr(self, index: int) -> int:
        """Virtual address of element ``index``."""
        return self.vbase + index * self.elem_bytes

    def read(self, index: int) -> "tuple[int, int]":
        """A load op for element ``index``."""
        return (OP_READ, self.vbase + index * self.elem_bytes)

    def write(self, index: int) -> "tuple[int, int]":
        """A store op for element ``index``."""
        return (OP_WRITE, self.vbase + index * self.elem_bytes)

    def read_run(self, index: int, count: int,
                 stride: int = 1) -> "tuple[int, range, tuple]":
        """A reference block of ``count`` loads starting at element
        ``index``, ``stride`` elements apart."""
        return (OP_REFS, self._sweep(index, count, stride), (False,) * count)

    def write_run(self, index: int, count: int,
                  stride: int = 1) -> "tuple[int, range, tuple]":
        """A reference block of ``count`` stores starting at element
        ``index``, ``stride`` elements apart."""
        return (OP_REFS, self._sweep(index, count, stride), (True,) * count)

    def _sweep(self, index: int, count: int, stride: int) -> range:
        step = stride * self.elem_bytes
        start = self.vbase + index * self.elem_bytes
        return range(start, start + count * step, step)


class SharedArray(ElementArray):
    """A shared segment interpreted as an array of fixed-size elements."""

    __slots__ = ()

    def __init__(self, layout, key: int, num_elems: int, elem_bytes: int) -> None:
        region = layout.attach_shared(key, num_elems * elem_bytes)
        self.vbase = region.vbase
        self.elem_bytes = elem_bytes
        self.num_elems = num_elems

    @property
    def size_bytes(self) -> int:
        """Total segment size."""
        return self.num_elems * self.elem_bytes


class PrivateArray(ElementArray):
    """A per-CPU private array (node-local memory, Local-mode frames)."""

    __slots__ = ()

    def __init__(self, layout, num_elems: int, elem_bytes: int) -> None:
        region = layout.add_private(num_elems * elem_bytes)
        self.vbase = region.vbase
        self.elem_bytes = elem_bytes
        self.num_elems = num_elems


class Workload:
    """Base class for all application kernels."""

    #: Short name used by the harness and result tables.
    name = "abstract"
    #: Paper's description (Table 2), for reports.
    description = ""
    #: The paper's problem size (Table 2), for reports.
    paper_problem = ""

    def __init__(self) -> None:
        self._barrier_seq = 0

    # -- to implement ----------------------------------------------------

    def setup(self, layout, num_cpus: int) -> None:
        """Create segments and precompute access plans.  Called once by
        the machine before the parallel phase."""
        raise NotImplementedError

    def generator(self, cpu_id: int, num_cpus: int):
        """Yield ops for one CPU's parallel phase."""
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def block_range(total: int, cpu_id: int, num_cpus: int) -> range:
        """Contiguous block partition of ``range(total)`` for one CPU."""
        base = total // num_cpus
        extra = total % num_cpus
        start = cpu_id * base + min(cpu_id, extra)
        size = base + (1 if cpu_id < extra else 0)
        return range(start, start + size)

    def describe(self) -> "dict[str, str]":
        """Name/description/problem-size record (Table 2 rows)."""
        return {
            "name": self.name,
            "description": self.description,
            "paper_problem": self.paper_problem,
            "problem": getattr(self, "problem", ""),
        }


def refs(addrs, writes) -> "tuple[int, object, object]":
    """A reference-block op (see :mod:`repro.sim.ops`).

    ``addrs[i]`` is stored to where ``writes[i]`` is true and loaded
    otherwise.
    """
    return (OP_REFS, addrs, writes)


def barrier(bid: int) -> "tuple[int, int]":
    """A global-barrier op for barrier ``bid``."""
    return (OP_BARRIER, bid)


def compute(cycles: int) -> "tuple[int, int]":
    """A local-computation op of ``cycles`` cycles."""
    return (OP_COMPUTE, cycles)


def lock(lid: int) -> "tuple[int, int]":
    """An acquire op for lock ``lid``."""
    return (OP_LOCK, lid)


def unlock(lid: int) -> "tuple[int, int]":
    """A release op for lock ``lid``."""
    return (OP_UNLOCK, lid)
