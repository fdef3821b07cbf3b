"""Synthetic access-pattern building blocks and the zipf microbenchmark.

The zipf generator reproduces the section 2.3 microbenchmark: "all GPU
threads repeatedly generate page addresses drawn from a zipf distribution
[36].  The skewness of the distribution is varied from 0 to 1 — controlling
how many unique pages are requested (higher skew implies fewer distinct
pages)" (Figure 6(b)).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.sim.transfer import WARP_SIZE
from repro.workloads.trace import TraceBuilder, WarpColumns, Workload


def zipf_weights(num_pages: int, skew: float) -> np.ndarray:
    """Normalised zipf(``skew``) probabilities over ``num_pages`` ranks.

    ``skew=0`` degenerates to uniform; ``skew=1`` is classic zipf.
    """
    if num_pages <= 0:
        raise TraceError(f"num_pages must be positive, got {num_pages}")
    if skew < 0:
        raise TraceError(f"skew must be non-negative, got {skew}")
    ranks = np.arange(1, num_pages + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    return weights / weights.sum()


class ZipfAccessGenerator(Workload):
    """Warps of lanes drawing page addresses from a zipf distribution."""

    name = "zipf"
    description = "Microbenchmark: warp lanes draw zipf-distributed pages"

    def __init__(
        self,
        footprint_pages: int,
        num_warps: int,
        skew: float,
        lanes: int = WARP_SIZE,
        write_fraction: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(footprint_pages, seed)
        if num_warps <= 0:
            raise TraceError(f"num_warps must be positive, got {num_warps}")
        if not 1 <= lanes <= WARP_SIZE:
            raise TraceError(f"lanes must be in 1..{WARP_SIZE}, got {lanes}")
        if not 0.0 <= write_fraction <= 1.0:
            raise TraceError(f"write_fraction must be in [0, 1]: {write_fraction}")
        self.num_warps = num_warps
        self.skew = skew
        self.lanes = lanes
        self.write_fraction = write_fraction

    def columns(self) -> WarpColumns:
        rng = np.random.default_rng(self.seed)
        weights = zipf_weights(self.footprint_pages, self.skew)
        # Page ranks are shuffled so "popular" pages are scattered in the
        # address space, as graph/hash workloads exhibit.
        page_of_rank = rng.permutation(self.footprint_pages)
        draws = rng.choice(
            self.footprint_pages, size=(self.num_warps, self.lanes), p=weights
        )
        writes = rng.random(self.num_warps) < self.write_fraction
        return WarpColumns(
            page_of_rank[draws].ravel(),
            np.full(self.num_warps, self.lanes, dtype=np.int8),
            writes,
        )


class StreamingWorkload(Workload):
    """Pure sequential streaming (STREAM-like): every page touched once.

    The zero-reuse baseline: no tiering policy can help, so all runtimes
    should collapse to BaM-like behaviour (modulo dirty-page parking).
    Useful as a control in tests and sensitivity studies.
    """

    name = "Streaming"
    description = "Sequential single-pass stream (no reuse; control workload)"

    def __init__(
        self, footprint_pages: int, write_fraction: float = 0.5, seed: int = 0
    ) -> None:
        super().__init__(footprint_pages, seed)
        if not 0.0 <= write_fraction <= 1.0:
            raise TraceError(f"write_fraction must be in [0, 1]: {write_fraction}")
        self.write_fraction = write_fraction

    def columns(self) -> WarpColumns:
        write_every = (
            int(1 / self.write_fraction) if self.write_fraction > 0 else 0
        )
        warps = np.arange(-(-self.footprint_pages // 2))
        trace = TraceBuilder()
        trace.stream(
            range(self.footprint_pages),
            write=warps % write_every == 0 if write_every else False,
        )
        return trace.build()


class KeyValueWorkload(Workload):
    """A KV store under zipf-skewed point lookups with periodic compaction.

    Serving systems show exactly the mix GMT targets: a hot set with
    short/medium reuse distances (the zipf head) over a long tail that is
    effectively streaming, punctuated by compaction sweeps that touch
    everything in order.  Not part of the paper's suite — provided for
    users evaluating GMT-style tiering on serving workloads.
    """

    name = "KeyValue"
    description = "Zipf-skewed KV lookups with periodic compaction sweeps"

    def __init__(
        self,
        footprint_pages: int,
        lookups: int | None = None,
        skew: float = 0.9,
        compaction_every: int = 4000,
        seed: int = 0,
    ) -> None:
        super().__init__(footprint_pages, seed)
        if skew < 0:
            raise TraceError(f"skew must be non-negative, got {skew}")
        if compaction_every < 1:
            raise TraceError(f"compaction_every must be >= 1: {compaction_every}")
        self.lookups = lookups if lookups is not None else footprint_pages * 4
        if self.lookups < 1:
            raise TraceError(f"lookups must be >= 1: {self.lookups}")
        self.skew = skew
        self.compaction_every = compaction_every

    def columns(self) -> WarpColumns:
        rng = np.random.default_rng(self.seed)
        weights = zipf_weights(self.footprint_pages, self.skew)
        page_of_rank = rng.permutation(self.footprint_pages)
        draws = rng.choice(self.footprint_pages, size=self.lookups, p=weights)
        writes = rng.random(self.lookups) < 0.1  # updates
        pages = page_of_rank[draws]
        del draws
        every = self.compaction_every
        trace = TraceBuilder()
        for first in range(0, self.lookups, every):
            trace.append(pages[first : first + every], 1, writes[first : first + every])
            if first + every <= self.lookups:
                # Compaction: read-modify-write sweep over the whole store.
                trace.stream(range(self.footprint_pages), write=True)
        return trace.build()
