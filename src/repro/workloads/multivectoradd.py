"""MultiVectorAdd: linear algebra with a repeatedly accessed output (BaM).

Table 2 shape: medium page reuse, Tier-2-biased RRDs.  The kernel computes
``C = C + A_k + B`` over K input vectors: each pass streams one fresh input
``A_k`` while re-reading the shared operand ``B`` and accumulating into
``C``.  Between consecutive passes, a ``B``/``C`` page sees roughly
``3 * vector_pages`` distinct pages — beyond GPU memory but within
GPU+host capacity at the paper's geometry, which is why section 3.3 calls
MultiVectorAdd out as the case where GMT-TierOrder's FIFO-like behaviour
fails ("newly inserted pages into Tier-2 evict pages that will be
least-furthest in the future") while GMT-Reuse gains 40 %.

Figure 4(b) additionally uses this workload to show per-page RRDs that are
*identical at every eviction* — a direct consequence of the fixed-stride
pass structure, preserved here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.workloads.trace import TraceBuilder, WarpColumns, Workload


class MultiVectorAddWorkload(Workload):
    """K passes of ``C += A_k + B`` over equal-length vectors."""

    name = "MultiVectorAdd"
    description = "Linear algebra, output vector repeatedly accessed (BaM)"

    def __init__(self, footprint_pages: int, num_inputs: int = 5, seed: int = 0) -> None:
        super().__init__(footprint_pages, seed)
        if num_inputs < 1:
            raise TraceError(f"num_inputs must be >= 1, got {num_inputs}")
        self.num_inputs = num_inputs
        # num_inputs input vectors + shared B + output C.
        self.vector_pages = max(1, footprint_pages // (num_inputs + 2))
        # A size below one page per vector still lays out one each.
        self.footprint_pages = max(footprint_pages, (num_inputs + 2) * self.vector_pages)

    def columns(self) -> WarpColumns:
        vp = self.vector_pages
        b_base = self.num_inputs * vp
        c_base = b_base + vp
        trace = TraceBuilder()
        # Initialise the output vector (one write sweep).
        trace.stream(range(c_base, c_base + vp), write=True)
        i = np.arange(vp)
        lengths = np.tile([2, 1], vp)
        writes = np.tile([False, True], vp)
        for k in range(self.num_inputs):
            a_base = k * vp
            # Lanes read A_k[i] and B[i], then accumulate into C[i].
            lanes = np.column_stack((a_base + i, b_base + i, c_base + i)).ravel()
            trace.append(lanes, lengths, writes)
        return trace.build()
