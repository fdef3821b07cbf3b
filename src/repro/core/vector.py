"""What the batched replay reads: the hit map and the flattened trace.

:meth:`GMTRuntime.run <repro.core.runtime.GMTRuntime.run>` retires
Tier-1 hit runs in batches.  It needs two things the per-access path
does not:

- :class:`HitMap`, one dense bit per page (Tier-1 resident and not a
  pending prefetch), which the runtime writes where Tier-1 changes, so
  one fancy-indexed probe finds a maximal hit prefix;
- :class:`TraceArrays`, the workload's coalesced access stream as flat
  numpy arrays (:func:`materialize_trace`, cached per workload), so the
  loop can slice and probe it.

The loop itself (``GMTRuntime._replay_flat`` / ``_batch_hits``) keeps
the runtime's own page table and Tier-1 structure, so every miss runs
the scalar pipeline byte for byte; see docs/performance.md.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.sim.gpu import WarpAccess
from repro.workloads.trace import WarpColumns, Workload

__all__ = [
    "HitMap",
    "TraceArrays",
    "clear_trace_cache",
    "materialize_trace",
]

#: Warps gathered per chunk when streaming a generic iterable trace.
_STREAM_CHUNK_WARPS = 4096


class HitMap:
    """One bit per page id, set iff the page is Tier-1 resident and not a
    pending prefetch: all the batch path reads of the page table.

    The bit's meaning changes in three places, all in
    :class:`~repro.core.runtime.GMTRuntime`: a demand fill sets it, a
    pending prefetch's first demand touch sets it, a Tier-1 eviction
    clears it (a prefetch fill leaves it clear).  The arrays grow
    geometrically on demand; page ids are dense: workloads number pages
    ``0..footprint``, and served tenants occupy contiguous ranges of one
    page space (:mod:`repro.serve.stream`).  An id at or past
    :data:`MAX_PAGES` raises.
    """

    #: Hard cap on the dense page-id space (64 Mi pages, 9 bytes each).
    MAX_PAGES = 1 << 26

    __slots__ = ("bits", "stamps")

    def __init__(self, initial: int = 1024) -> None:
        self.bits = np.zeros(initial, dtype=bool)
        #: Scratch for ``GMTRuntime._batch_hits``: each page's last
        #: virtual timestamp within a hit run.
        self.stamps = np.zeros(initial, dtype=np.int64)

    def ensure(self, n: int) -> None:
        """Grow the arrays to cover page ids ``0..n-1``."""
        size = self.bits.shape[0]
        if n <= size:
            return
        if n > self.MAX_PAGES:
            raise SimulationError(
                f"page id {n - 1} exceeds the hit map's dense page-id "
                f"capacity ({self.MAX_PAGES}); number the trace's pages "
                "densely from 0"
            )
        grow = min(max(n, size * 2), self.MAX_PAGES) - size
        self.bits = np.pad(self.bits, (0, grow))
        self.stamps = np.pad(self.stamps, (0, grow))


# ----------------------------------------------------------------------
# trace materialization
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class TraceArrays:
    """A warp trace flattened to its coalesced access stream.

    ``pages[k]``/``writes[k]`` describe the k-th coalesced access exactly
    as the per-warp ``access_warp`` loop would issue it; ``n_warps`` is the
    number of warp instructions the stream came from.  ``warps[k]`` is
    the 1-based warp-instruction count up to and including access ``k``'s
    warp — instrumented replays restore ``stats.warp_instructions`` from
    it so window cuts and audits observe the same mid-run value the
    per-warp ``access_warp`` loop would have accumulated.
    """

    pages: np.ndarray
    writes: np.ndarray
    n_warps: int
    warps: np.ndarray


#: Materialized traces, cached per workload object.  Keyed weakly so the
#: cache follows the experiment harness's own workload cache lifetime.
_TRACE_CACHE: "weakref.WeakKeyDictionary[Workload, TraceArrays]" = (
    weakref.WeakKeyDictionary()
)


def materialize_trace(workload: Workload) -> TraceArrays:
    """Flatten (and cache) a workload's coalesced access stream.

    Workloads are pure functions of their constructor arguments, so the
    flat arrays are a faithful replacement for regenerating the trace;
    the cache makes replaying one workload through several runtimes
    (every figure does this) pay the generation cost once.
    """
    cached = _TRACE_CACHE.get(workload)
    if cached is not None:
        return cached
    arrays = _flatten(workload.columns())
    _TRACE_CACHE[workload] = arrays
    return arrays


def clear_trace_cache() -> None:
    """Drop all materialized traces (test/benchmark hygiene)."""
    _TRACE_CACHE.clear()


def _flatten(columns: WarpColumns) -> TraceArrays:
    """A warp trace's coalesced access stream as :class:`TraceArrays`:
    one vectorized coalesce, no per-warp object."""
    pages, first = columns.coalesce()
    # An access's warp number counts the warp starts up to it.
    warps = first.astype(np.int64)
    np.cumsum(warps, out=warps)
    # Each access stores iff its warp does (indexed through warps in
    # place, so no second index array is allocated).
    warps -= 1
    writes = columns.writes[warps]
    warps += 1
    return TraceArrays(pages=pages, writes=writes, n_warps=columns.n_warps, warps=warps)


def _iter_trace_chunks(
    trace: Iterable[WarpAccess], chunk_warps: int | None = None
) -> Iterator[TraceArrays]:
    """Flatten a warp iterable ``chunk_warps`` warps at a time (None:
    the whole trace as exactly one chunk, possibly empty)."""
    warps = iter(trace)
    while True:
        columns = WarpColumns.from_warps(islice(warps, chunk_warps))
        if chunk_warps is None or columns.n_warps:
            yield _flatten(columns)
        if chunk_warps is None or columns.n_warps < chunk_warps:
            return
