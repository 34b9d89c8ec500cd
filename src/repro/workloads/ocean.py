"""Ocean kernel (SPLASH-2 OCEAN: ocean-current simulation).

The computation is dominated by iterative 5-point stencil relaxations
over large square grids, with rows block-partitioned across CPUs.  We
model the multigrid solver's work loop faithfully at the access level:
per iteration, each CPU sweeps its rows of the main grid reading the
north/south/east/west neighbours (north/south rows at partition edges
belong to neighbouring CPUs — the nearest-neighbour communication of
OCEAN), plus streaming reads of two auxiliary field grids and a write
of the next-state grid, followed by a barrier, then the grids swap
roles.

Paper data set: 258x258 ocean grid.  Default here: 130x130 with more
auxiliary grids per the real code's ~25 grids being its footprint
driver (we carry 4).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import (SharedArray, Workload, barrier, compute,
                                  refs)

DOUBLE_BYTES = 8


class OceanWorkload(Workload):
    """Iterative grid relaxations (see module docstring)."""

    name = "ocean"
    description = "Simulation of ocean currents"
    paper_problem = "258x258 ocean grid"

    def __init__(self, grid: int = 130, iterations: int = 6) -> None:
        super().__init__()
        self.g = grid
        self.iterations = iterations
        self.problem = "%dx%d ocean grid, %d iterations" % (
            grid, grid, iterations)

    def setup(self, layout, num_cpus: int) -> None:
        cells = self.g * self.g
        self.q = SharedArray(layout, key=401, num_elems=cells,
                             elem_bytes=DOUBLE_BYTES)
        self.q_next = SharedArray(layout, key=402, num_elems=cells,
                                  elem_bytes=DOUBLE_BYTES)
        self.psi = SharedArray(layout, key=403, num_elems=cells,
                               elem_bytes=DOUBLE_BYTES)
        self.gamma = SharedArray(layout, key=404, num_elems=cells,
                                 elem_bytes=DOUBLE_BYTES)

    def generator(self, cpu_id: int, num_cpus: int):
        g = self.g
        rows = self.block_range(g - 2, cpu_id, num_cpus)  # interior rows
        src, dst = self.q, self.q_next
        # Per interior column, in order: the north, south, west, east
        # and centre reads of src, the psi and gamma reads, the dst
        # write.  ``lanes`` holds each reference's address minus the
        # row and column offsets, so a row's block is one broadcast.
        cols = np.arange(1, g - 1, dtype=np.int64) * DOUBLE_BYTES
        row_bytes = g * DOUBLE_BYTES
        writes = ([False] * 7 + [True]) * (g - 2)
        bid = 0
        for _ in range(self.iterations):
            lanes = np.array([src.vbase - row_bytes, src.vbase + row_bytes,
                              src.vbase - DOUBLE_BYTES,
                              src.vbase + DOUBLE_BYTES, src.vbase,
                              self.psi.vbase, self.gamma.vbase, dst.vbase],
                             dtype=np.int64)
            grid = cols[:, None] + lanes
            for r0 in rows:
                row = (r0 + 1) * row_bytes
                yield refs((grid + row).ravel().tolist(), writes)
                yield compute(8 * (g - 2))
            yield barrier(bid)
            bid += 1
            src, dst = dst, src
