"""PageRank over an RMAT graph (BaM suite, GAP-Kron).

Table 2 shape: **90.42 % page reuse** with RRDs overwhelmingly in the
Tier-3 class — every iteration sweeps all rank and edge pages, so each
recurs only after the whole working set.  Figure 4(c) shows per-page RRDs
*alternating* between two values across evictions; that arises here
because consecutive iterations process the edge list in opposite
directions (a common scheduling artefact), so a page touched late in one
sweep is touched early in the next.  The 2-level Markov history is
exactly what captures this.

Each edge page access is paired with the rank page of a vertex actually
referenced by that page (a real gather), so hub pages are hotter than
cold ones, as the power-law degree distribution dictates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.workloads.graph_common import GraphWorkload
from repro.workloads.trace import TraceBuilder, WarpColumns


class PageRankWorkload(GraphWorkload):
    """Iterated full-graph rank propagation, alternating sweep direction."""

    name = "PageRank"
    description = "Graph algorithm, data-dependent vertex/edge accesses (BaM)"

    def __init__(
        self,
        footprint_pages: int,
        iterations: int = 5,
        cold_fraction: float = 0.10,
        seed: int = 0,
        scale: int | None = None,
        graph=None,
    ) -> None:
        super().__init__(footprint_pages, seed, scale, graph=graph)
        if iterations < 1:
            raise TraceError(f"iterations must be >= 1, got {iterations}")
        if not 0.0 <= cold_fraction < 1.0:
            raise TraceError(f"cold_fraction must be in [0, 1): {cold_fraction}")
        self.iterations = iterations
        self.cold_fraction = cold_fraction

    def _per_edge_page_gathers(self) -> np.ndarray:
        """For each edge page, the rank page of its first CSR target —
        the data-dependent gather that accompanies reading that page."""
        graph = self.graph
        pages = self.page_map
        first_slots = np.arange(0, graph.num_edges, pages.edges_per_page)
        first_targets = graph.targets[first_slots].astype(np.int64)
        return first_targets // pages.vertices_per_page  # rank array 0 pages

    def columns(self) -> WarpColumns:
        pages = self.page_map
        gather_pages = self._per_edge_page_gathers()
        edge_base = pages.num_property_arrays * pages.vertex_array_pages
        num_edge_pages = pages.edge_pages
        rank_pages = pages.vertex_array_pages

        # One-time graph-loading metadata (degrees, offsets construction):
        # read once and never again, matching Table 2's ~90 % page reuse.
        cold_base = pages.total_pages
        trace = TraceBuilder()
        trace.stream(range(cold_base, cold_base + self.cold_pages))

        # Each warp reads an edge page and gathers a referenced vertex's rank.
        edge_warps = np.column_stack(
            (edge_base + np.arange(num_edge_pages), gather_pages)
        )
        for iteration in range(self.iterations):
            step = -1 if iteration % 2 == 1 else 1
            trace.append(edge_warps[::step].ravel(), 2)
            # Write the next-rank array (property array 1), same direction.
            trace.stream(range(rank_pages, 2 * rank_pages)[::step], write=True)
            # Read the current-rank array (property array 0).
            trace.stream(range(rank_pages)[::step])
        return trace.build()
