"""Hotspot: thermal simulation, iterations over a grid (Rodinia).

Table 2 shape: **81.33 % page reuse** but RRDs 100 % in the Tier-3 class —
every iteration sweeps the temperature and power grids in the same order,
so each page recurs only after the *entire* working set (twice GPU+host
capacity at the default geometry).  Left to its prediction alone,
GMT-Reuse would bypass host memory entirely; section 2.2's 80 %
Tier-3-bias heuristic instead force-places evictions into Tier-2, cutting
SSD accesses by 73 % and yielding a 125 % speedup (section 3.3, "High
Reuse, Tier-3 Bias").  This workload exists to exercise exactly that
heuristic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.workloads.trace import TraceBuilder, WarpColumns, Workload


class HotspotWorkload(Workload):
    """Fixed-order iterations over temperature + power grids."""

    name = "Hotspot"
    description = "Thermal simulation, iterations on a grid (Rodinia)"

    def __init__(
        self,
        footprint_pages: int,
        iterations: int = 12,
        grid_fraction: float = 0.86,
        seed: int = 0,
    ) -> None:
        super().__init__(footprint_pages, seed)
        if iterations < 1:
            raise TraceError(f"iterations must be >= 1, got {iterations}")
        if not 0.0 < grid_fraction <= 1.0:
            raise TraceError(f"grid_fraction must be in (0, 1]: {grid_fraction}")
        self.iterations = iterations
        grid_pages = max(2, int(footprint_pages * grid_fraction))
        # Temperature and power arrays of equal size.
        self.array_pages = grid_pages // 2
        self.cold_pages = footprint_pages - 2 * self.array_pages

    def columns(self) -> WarpColumns:
        temp_base = self.cold_pages
        power_base = temp_base + self.array_pages
        trace = TraceBuilder()
        # One-time configuration data (floorplan, constants).
        trace.stream(range(self.cold_pages))
        # Per grid slice: read its power density, then update its
        # temperatures in place (read-modify-write of the same page is
        # one coalesced touch per iteration).
        grid = np.arange(self.array_pages)
        lanes = np.column_stack((power_base + grid, temp_base + grid)).ravel()
        writes = np.tile([False, True], self.array_pages)
        for _ in range(self.iterations):
            trace.append(lanes, 1, writes)
        return trace.build()
