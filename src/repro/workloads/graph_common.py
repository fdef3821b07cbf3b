"""Shared machinery for the graph workloads (BFS, PageRank, SSSP).

All three run real algorithms over an RMAT graph (the GAP-Kron stand-in,
see :mod:`repro.workloads.kron`) laid out as CSR with two per-vertex
property arrays.  The graph is sized from the requested footprint: with
the default layout knobs, ``total_pages ~= 0.5625 * V``, so the vertex
count is the nearest power of two to ``footprint * 16/9``.

Traces are emitted at *page* granularity per algorithm step: each page a
level/iteration touches appears once per step (the GPU's L2 and per-level
coalescing absorb intra-step repeats), which keeps trace lengths tractable
while preserving the inter-step reuse structure that tiering sees.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TraceError
from repro.workloads.kron import CSRGraph, GraphPageMap, rmat_csr
from repro.workloads.trace import Workload


class GraphWorkload(Workload):
    """Base class: owns the RMAT graph and its page layout.

    The graph is built lazily on first use and cached on the instance, so
    re-iterating a workload (to feed several runtimes) pays generation
    once.
    """

    #: Layout knobs (see DESIGN.md section 5 on element scaling).
    VERTICES_PER_PAGE = 32
    EDGES_PER_PAGE = 32
    EDGE_FACTOR = 16
    PROPERTY_ARRAYS = 2
    #: Share of the trace's distinct pages that are one-time cold pages,
    #: laid out after the graph's own pages (see :attr:`cold_pages`).
    cold_fraction = 0.0

    def __init__(
        self,
        footprint_pages: int,
        seed: int = 0,
        scale: int | None = None,
        graph: CSRGraph | None = None,
    ) -> None:
        """``graph`` injects an external CSR (e.g. from
        :mod:`repro.workloads.graphio`) instead of generating RMAT; the
        requested ``footprint_pages`` is then ignored in favour of the
        graph's actual page footprint."""
        if graph is not None:
            # Footprint follows from the injected graph's layout.
            probe = GraphPageMap(
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                vertices_per_page=self.VERTICES_PER_PAGE,
                edges_per_page=self.EDGES_PER_PAGE,
                num_property_arrays=self.PROPERTY_ARRAYS,
            )
            super().__init__(probe.total_pages, seed)
            self.scale = 0  # unused with an injected graph
            self._graph = graph
            self._page_map = probe
            return
        super().__init__(footprint_pages, seed)
        if scale is None:
            scale = self._scale_for_footprint(footprint_pages)
        if scale < 4:
            raise TraceError(f"graph scale too small: {scale} (footprint too tiny)")
        self.scale = scale
        self._graph = None
        self._page_map: GraphPageMap | None = None

    @property
    def footprint_pages(self) -> int:
        """A bound on every page id the trace emits: the requested
        footprint, raised to the graph's pages plus the cold pages after
        them where the layout came out larger (the vertex count rounds
        to a power of two, and an injected graph brings its own size).
        The prefetcher and the footprint-bound audit rely on it."""
        pages = self.page_map
        # An empty adjacency list at the end of the edge array names the
        # page its offset falls in: one past the last edge page when the
        # edge count fills whole pages (BFS reads it).
        end = pages.edge_page(pages.num_edges) + 1
        return max(self._requested_pages, pages.total_pages + self.cold_pages, end)

    @footprint_pages.setter
    def footprint_pages(self, requested: int) -> None:
        self._requested_pages = requested

    @property
    def cold_pages(self) -> int:
        """One-time cold pages, ids ``total_pages`` onwards."""
        total = self.page_map.total_pages
        return int(total * self.cold_fraction / (1 - self.cold_fraction))

    @classmethod
    def _scale_for_footprint(cls, footprint_pages: int) -> int:
        pages_per_vertex = (
            cls.PROPERTY_ARRAYS / cls.VERTICES_PER_PAGE
            + cls.EDGE_FACTOR / cls.EDGES_PER_PAGE
        )
        target_vertices = footprint_pages / pages_per_vertex
        return max(4, round(math.log2(max(2.0, target_vertices))))

    @property
    def graph(self) -> CSRGraph:
        if self._graph is None:
            self._graph = rmat_csr(self.scale, self.EDGE_FACTOR, seed=self.seed)
        return self._graph

    @property
    def page_map(self) -> GraphPageMap:
        if self._page_map is None:
            g = self.graph
            self._page_map = GraphPageMap(
                num_vertices=g.num_vertices,
                num_edges=g.num_edges,
                vertices_per_page=self.VERTICES_PER_PAGE,
                edges_per_page=self.EDGES_PER_PAGE,
                num_property_arrays=self.PROPERTY_ARRAYS,
            )
        return self._page_map

    def highest_degree_vertex(self) -> int:
        """BFS/SSSP source: the biggest hub reaches most of the graph."""
        g = self.graph
        degrees = np.diff(g.offsets)
        return int(np.argmax(degrees))


def gather_neighbors(graph: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """All CSR targets of ``frontier``'s adjacency lists (vectorised)."""
    starts = graph.offsets[frontier]
    ends = graph.offsets[frontier + 1]
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=graph.targets.dtype)
    # flat[i] = starts[v] + (i - first_slot_of_v) for the owning vertex v.
    first_slot = np.zeros(len(frontier), dtype=np.int64)
    np.cumsum(lengths[:-1], out=first_slot[1:])
    owner = np.repeat(np.arange(len(frontier)), lengths)
    within = np.arange(total) - first_slot[owner]
    flat = starts[owner] + within
    return graph.targets[flat]
