"""Workload trace generators for the paper's nine applications (Table 2).

Each workload reproduces the *memory-access shape* of its application —
reuse percentage, remaining-reuse-distance bias, read/write mix — at the
configured footprint, since those are the properties the paper's Figure 7
uses to explain every result.  Graph workloads (BFS, PageRank, SSSP) run
real algorithms over a synthetic RMAT/Kronecker graph standing in for
GAP-Kron (see DESIGN.md section 2).

Use :func:`make_workload` / :data:`WORKLOAD_NAMES` for the paper's suite,
or instantiate the classes directly with custom parameters.
"""

from repro.workloads.registry import WORKLOAD_NAMES, make_workload, workload_table
from repro.workloads.synthetic import ZipfAccessGenerator
from repro.workloads.trace import TraceBuilder, WarpColumns, Workload, stream_warps

__all__ = [
    "WORKLOAD_NAMES",
    "TraceBuilder",
    "WarpColumns",
    "Workload",
    "ZipfAccessGenerator",
    "make_workload",
    "stream_warps",
    "workload_table",
]
