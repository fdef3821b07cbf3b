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
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.sim.gpu import WarpAccess, coalesce
from repro.workloads.trace import Workload

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

    Workloads are re-iterable pure functions of their seed, so the flat
    arrays are a faithful replacement for re-generating the stream; the
    cache makes replaying one workload through several runtimes (every
    figure does this) pay the generation cost once.
    """
    cached = _TRACE_CACHE.get(workload)
    if cached is not None:
        return cached
    n_warps, pages, writes, warps = next(_iter_trace_chunks(workload))
    arrays = TraceArrays(pages=pages, writes=writes, n_warps=n_warps, warps=warps)
    _TRACE_CACHE[workload] = arrays
    return arrays


def clear_trace_cache() -> None:
    """Drop all materialized traces (test/benchmark hygiene)."""
    _TRACE_CACHE.clear()


def _iter_trace_chunks(
    trace: Iterable[WarpAccess], chunk_warps: int | None = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Flatten a warp iterable into ``(n_warps, pages, writes, warps)``
    chunks of at most ``chunk_warps`` warps each (None: the whole trace
    as exactly one chunk, possibly empty).

    ``warps[k]`` counts the chunk's warps up to and including access
    ``k``'s.  Accesses collect in compact ``array``/``bytearray``
    blocks that close at the first warp boundary past
    :data:`_FLATTEN_BLOCK` accesses, and each chunk joins its blocks
    once.  So flattening a long trace allocates no per-access Python
    object, and no buffer is grown by reallocation past one block.
    """
    block = _FLATTEN_BLOCK
    columns: tuple[list, list, list] = ([], [], [])
    pages, writes, warps = _open_block(columns)
    n_warps = 0
    for warp in trace:
        n_warps += 1
        write = warp.write
        for page in coalesce(warp):
            pages.append(page)
            writes.append(write)
            warps.append(n_warps)
        if n_warps == chunk_warps:
            yield n_warps, *_join_blocks(columns)
            n_warps = 0
            pages, writes, warps = _open_block(columns)
        elif len(pages) >= block:
            pages, writes, warps = _open_block(columns)
    if n_warps or chunk_warps is None:
        yield n_warps, *_join_blocks(columns)


#: Coalesced accesses per flattening block (see :func:`_iter_trace_chunks`).
_FLATTEN_BLOCK = 1 << 16


def _open_block(columns: tuple[list, list, list]) -> tuple[array, bytearray, array]:
    """Start a fresh block in each column; returns its three buffers."""
    buffers = (array("q"), bytearray(), array("q"))
    for blocks, buffer in zip(columns, buffers):
        blocks.append(buffer)
    return buffers


def _join_blocks(columns: tuple[list, list, list]) -> list[np.ndarray]:
    """Concatenate each column's blocks into one array, releasing the
    blocks column by column."""
    joined = []
    for blocks, dtype in zip(columns, (np.int64, bool, np.int64)):
        joined.append(
            np.concatenate([np.frombuffer(b, dtype=dtype) for b in blocks])
        )
        blocks.clear()
    return joined
