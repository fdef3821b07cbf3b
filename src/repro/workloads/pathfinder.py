"""Pathfinder: dynamic programming, row-by-row iteration (Rodinia).

Table 2 shape: **19.47 % page reuse**, RRDs 99.99 % within Tier-1.  Row
``r``'s result depends on row ``r-1``'s: the wide input grid (4 pages of
weights per result page) is streamed once, while each freshly written
result row is re-read one row later — a reuse distance of a few row-widths,
far inside GPU memory.  The Tier-2 benefit (25 % in the paper) comes not
from Tier-2 *hits* but from dirty result rows being retired to host memory
instead of the SSD.
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.workloads.trace import TraceBuilder, WarpColumns, Workload


class PathfinderWorkload(Workload):
    """Row-by-row DP over a grid 4x wider than its result rows."""

    name = "Pathfinder"
    description = "Dynamic programming, row-by-row iteration (Rodinia)"

    #: Input-grid pages consumed per result-row page.
    GRID_RATIO = 4

    def __init__(self, footprint_pages: int, row_pages: int = 8, seed: int = 0) -> None:
        super().__init__(footprint_pages, seed)
        if row_pages < 1:
            raise TraceError(f"row_pages must be >= 1, got {row_pages}")
        self.row_pages = row_pages
        pages_per_row = (self.GRID_RATIO + 1) * row_pages
        self.num_rows = max(2, footprint_pages // pages_per_row)
        # A size below two rows still lays out two.
        self.footprint_pages = max(footprint_pages, self.num_rows * pages_per_row)

    def columns(self) -> WarpColumns:
        grid_pages_per_row = self.GRID_RATIO * self.row_pages
        grid_base = 0
        result_base = self.num_rows * grid_pages_per_row

        def result_row(r: int) -> range:
            first = result_base + r * self.row_pages
            return range(first, first + self.row_pages)

        trace = TraceBuilder()
        for row in range(self.num_rows):
            # Stream this row's slice of the input grid (touched once).
            first = grid_base + row * grid_pages_per_row
            trace.stream(range(first, first + grid_pages_per_row))
            if row > 0:
                # Re-read the previous row's result (the DP dependency).
                trace.stream(result_row(row - 1))
            # Write this row's result.
            trace.stream(result_row(row), write=True)
        return trace.build()
