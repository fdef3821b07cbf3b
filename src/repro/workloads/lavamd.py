"""LavaMD: particle simulation with neighbor-box accesses (Rodinia).

Table 2 shape: **1.17 % page reuse**, Tier-1-biased RRDs, 168 GB total I/O
(~one pass over the dataset).  Each box's particle data is streamed through
exactly once (read-modify-write in place); only a small parameter region —
charges/constants shared by every box — is re-accessed, and always at tiny
reuse distances.  Section 3.3 notes GMT-Reuse can even *lose* slightly here
because one pass builds almost no eviction history; the trace preserves
that property (most pages are evicted exactly once, unresolved).
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.workloads.trace import TraceBuilder, WarpColumns, Workload


class LavaMDWorkload(Workload):
    """One pass over per-box particle pages + a hot parameter region."""

    name = "LavaMD"
    description = "Particle simulation, neighbor accesses (Rodinia)"

    def __init__(
        self,
        footprint_pages: int,
        box_pages: int = 16,
        param_fraction: float = 0.012,
        seed: int = 0,
    ) -> None:
        super().__init__(footprint_pages, seed)
        if box_pages < 1:
            raise TraceError(f"box_pages must be >= 1, got {box_pages}")
        if not 0.0 < param_fraction < 1.0:
            raise TraceError(f"param_fraction must be in (0, 1): {param_fraction}")
        self.param_pages = max(1, int(footprint_pages * param_fraction))
        self.box_pages = box_pages
        data_pages = footprint_pages - self.param_pages
        self.num_boxes = max(1, data_pages // box_pages)
        # Parameter pages are partitioned per spatial neighbourhood: boxes
        # of one neighbourhood cycle through their group's pages, so the
        # (rare) reuse happens at short distances — ~1 % of the footprint,
        # well inside any realistic Tier-1 (Figure 7's Tier-1 bias).
        target_reuse_pages = max(1, footprint_pages // 100)
        self.param_group_pages = max(
            1, min(self.param_pages, target_reuse_pages // (box_pages + 1))
        )
        groups = -(-self.param_pages // self.param_group_pages)
        self.boxes_per_neighborhood = max(1, -(-self.num_boxes // groups))
        # A size below one box still lays out a whole box.
        self.footprint_pages = max(
            footprint_pages, self.param_pages + self.num_boxes * box_pages
        )

    def columns(self) -> WarpColumns:
        data_base = self.param_pages
        group_size = self.param_group_pages
        trace = TraceBuilder()
        for box in range(self.num_boxes):
            # Each warp first loads its neighbourhood's shared parameters...
            group = box // self.boxes_per_neighborhood
            group_base = (group * group_size) % self.param_pages
            param_page = group_base + box % group_size
            trace.append([min(param_page, self.param_pages - 1)])
            # ...then streams the box's particles, updating them in place.
            first = data_base + box * self.box_pages
            trace.stream(range(first, first + self.box_pages), write=True)
        return trace.build()
