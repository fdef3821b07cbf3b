"""SSSP: single-source shortest paths over an RMAT graph (BaM suite).

Table 2 shape: **79.96 % page reuse**, Tier-3-biased RRDs.  A
Bellman-Ford-style round structure is executed: each relaxation round
processes the vertices whose distance changed in the previous round.
Early rounds grow the active set to most of the graph, late rounds shrink
it; a vertex typically relaxes in several rounds, so vertex and edge
pages recur with round-scale (very long) reuse distances, while ~20 % of
pages (never-reached fringes plus single-round edges) see no reuse.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.workloads.graph_common import GraphWorkload, gather_neighbors
from repro.workloads.trace import TraceBuilder, WarpColumns


class SSSPWorkload(GraphWorkload):
    """Round-based relaxation with unit-ish random edge weights."""

    name = "SSSP"
    description = "Graph algorithm, data-dependent vertex/edge accesses (BaM)"

    def __init__(
        self,
        footprint_pages: int,
        max_rounds: int = 8,
        num_sources: int = 3,
        cold_fraction: float = 0.20,
        seed: int = 0,
        scale: int | None = None,
        graph=None,
    ) -> None:
        super().__init__(footprint_pages, seed, scale, graph=graph)
        if max_rounds < 1:
            raise TraceError(f"max_rounds must be >= 1, got {max_rounds}")
        if num_sources < 1:
            raise TraceError(f"num_sources must be >= 1, got {num_sources}")
        if not 0.0 <= cold_fraction < 1.0:
            raise TraceError(f"cold_fraction must be in [0, 1): {cold_fraction}")
        self.max_rounds = max_rounds
        self.num_sources = num_sources
        self.cold_fraction = cold_fraction

    def columns(self) -> WarpColumns:
        # A batch of single-source queries (as graph serving systems run):
        # each re-traverses the whole graph, so vertex and edge pages recur
        # at working-set-scale distances — Table 2's 80 % reuse with
        # Tier-3-biased RRDs.
        graph = self.graph
        pages = self.page_map
        # One-time loading/preprocessing data (weights parsing, query log):
        # read once, never reused (Table 2: ~80 % page reuse, not 100 %).
        cold_base = pages.total_pages
        trace = TraceBuilder()
        trace.stream(range(cold_base, cold_base + self.cold_pages))
        degrees = np.diff(graph.offsets)
        sources = np.argsort(degrees)[::-1][: self.num_sources]
        for query, source in enumerate(sources):
            self._single_source(trace, int(source), query)
        return trace.build()

    def _single_source(self, trace: TraceBuilder, source: int, query: int) -> None:
        graph = self.graph
        pages = self.page_map
        rng = np.random.default_rng(self.seed + 1 + query)
        # Small integer weights make vertices settle over several rounds.
        weights = rng.integers(1, 4, size=graph.num_edges, dtype=np.int32)
        dist = np.full(graph.num_vertices, np.iinfo(np.int32).max, dtype=np.int64)
        dist[source] = 0
        active = np.array([source], dtype=np.int64)

        for _ in range(self.max_rounds):
            if active.size == 0:
                break
            # Read the active vertices' distance pages.
            trace.stream(pages.vertex_pages_array(active, array=0))
            # Read the edge (target + weight) pages they span.
            starts = graph.offsets[active]
            ends = graph.offsets[active + 1]
            trace.stream(pages.edge_pages_for_ranges(starts, ends))
            # Relax: gather targets, compute tentative distances.
            targets = gather_neighbors(graph, active)
            if targets.size == 0:
                break
            lengths = (ends - starts).astype(np.int64)
            src_dist = np.repeat(dist[active], lengths)
            flat_weights = _gather_flat(graph, active, weights)
            tentative = src_dist + flat_weights
            improved = tentative < dist[targets]
            changed = np.unique(targets[improved].astype(np.int64))
            # Write the improved vertices' distance pages (array 1 mirrors
            # the updated-this-round flags BaM's SSSP keeps per vertex).
            touched = pages.vertex_pages_array(np.unique(targets), array=1)
            trace.stream(touched, write=True)
            if changed.size == 0:
                break
            np.minimum.at(dist, targets, tentative)
            active = changed


def _gather_flat(graph, frontier: np.ndarray, per_edge: np.ndarray) -> np.ndarray:
    """Per-edge values of ``frontier``'s adjacency slots, flattened in the
    same order as :func:`gather_neighbors`."""
    starts = graph.offsets[frontier]
    lengths = (graph.offsets[frontier + 1] - starts).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=per_edge.dtype)
    first_slot = np.zeros(len(frontier), dtype=np.int64)
    np.cumsum(lengths[:-1], out=first_slot[1:])
    owner = np.repeat(np.arange(len(frontier)), lengths)
    within = np.arange(total) - first_slot[owner]
    return per_edge[starts[owner] + within]
