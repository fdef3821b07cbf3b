"""BFS: breadth-first search over an RMAT graph (BaM suite, GAP-Kron).

Table 2 shape: ~33 % page reuse, Tier-2-biased RRDs.  A real
level-synchronous BFS is executed: each level reads the frontier's
distance pages and the edge pages spanned by its adjacency lists, then
writes the discovered neighbours' distance pages.  Vertex-property pages
recur level after level (medium distances); most edge pages are touched
in one or two expansion levels only.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.graph_common import GraphWorkload, gather_neighbors
from repro.workloads.trace import TraceBuilder, WarpColumns


class BFSWorkload(GraphWorkload):
    """Level-synchronous BFS from the highest-degree vertex."""

    name = "BFS"
    description = "Graph traversal, data-dependent vertex/edge accesses (BaM)"

    def columns(self) -> WarpColumns:
        graph = self.graph
        pages = self.page_map
        dist = np.full(graph.num_vertices, -1, dtype=np.int32)
        source = self.highest_degree_vertex()
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        trace = TraceBuilder()
        while frontier.size:
            level += 1
            # Read the frontier's own property pages (distance/state).
            trace.stream(pages.vertex_pages_array(frontier, array=0))
            # Read the edge pages its adjacency lists span.
            starts = graph.offsets[frontier]
            ends = graph.offsets[frontier + 1]
            trace.stream(pages.edge_pages_for_ranges(starts, ends))
            # Visit neighbours: check + update their distance pages.
            neighbors = np.unique(gather_neighbors(graph, frontier))
            if neighbors.size == 0:
                break
            unvisited = neighbors[dist[neighbors] < 0]
            trace.stream(pages.vertex_pages_array(neighbors, array=1), write=True)
            dist[unvisited] = level
            frontier = unvisited.astype(np.int64)
        return trace.build()
