"""Struct-of-arrays (SoA) replay engine — the vectorized hot path.

The scalar :class:`~repro.core.runtime.GMTRuntime` pays one Python object
hop per coalesced access: a dict lookup in the page table, an enum
comparison, a clock-dict lookup, half a dozen attribute increments.  That
caps every experiment cell, bench number, and serve run (ROADMAP item 1).

This module keeps the *miss pipeline* — the part with real control flow:
eviction decisions, Tier-2 admission, writebacks — byte-for-byte on the
scalar code path, and vectorizes only what dominates the instruction
stream: runs of consecutive Tier-1 hits.  Per-page metadata lives in
parallel numpy arrays indexed by page id (:class:`VectorPageStore`); the
replay loop detects maximal hit prefixes with one fancy-indexed compare
and retires them with a handful of array ops (:meth:`VectorEngineMixin.
_batch_hits`) instead of one Python iteration each.

Byte-identity with the scalar engine is a hard requirement (the
``gmt-check`` differential harness enforces it, see
``repro.check.differential``), which dictates the design:

- a batched hit retires the *same* state transitions in the same order a
  scalar hit would: VTD clock tick, per-page timestamp/access-count
  update, stats increments, compute-cost accrual, queueing-model arrival,
  dirty marking, clock reference bit;
- float accumulators advance through
  :func:`repro.sim.cost.sequential_float_sum`, which reproduces the exact
  rounding of a sequential ``+=`` loop (``np.add.accumulate`` is the
  sequential recurrence; ``np.add.reduce`` would pairwise-sum and drift);
- anything the batch cannot express exactly — misses, prefetched pages'
  first demand touch, policies whose ``on_access`` is observable
  (:attr:`~repro.core.policies.PlacementPolicy.hits_batchable`), window
  boundary accesses under attached telemetry, accesses a periodic audit
  runs before — drops to the inherited scalar code path for that access
  (the per-batch observer chain, see :mod:`repro.obs.batch`); only a
  Tier-1 structure with no vector twin demotes the whole run.

:func:`vector_variant` composes the mixin onto any runtime class whose
access path is inherited from :class:`GMTRuntime` (all the baselines),
and :func:`repro.core.factory.make_runtime` is the public way to pick an
engine.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.runtime import GMTRuntime
from repro.errors import CapacityError, PageStateError, SimulationError
from repro.mem.clock_replacement import ClockReplacement
from repro.mem.page import PageLocation, PageState
from repro.mem.page_table import PageTable
from repro.obs.batch import AuditBatchObserver, BatchObserverChain
from repro.sim.gpu import WarpAccess, coalesce
from repro.workloads.trace import Workload

__all__ = [
    "TraceArrays",
    "VectorClock",
    "VectorEngineMixin",
    "VectorPageStore",
    "VectorPageState",
    "VectorPageTable",
    "VectorReplayEngine",
    "materialize_trace",
    "vector_variant",
]

#: Tier codes as stored in :attr:`VectorPageStore.loc` (== PageLocation.value).
_T1_CODE = PageLocation.TIER1.value
_T3_CODE = PageLocation.TIER3.value
#: Decode table: location code -> PageLocation (index 0 unused).
_LOC_FROM_CODE = (None, PageLocation.TIER1, PageLocation.TIER2, PageLocation.TIER3)

#: Adaptive hit-window bounds (batch sizes; tuning only, never semantics).
_WINDOW_MIN = 64
_WINDOW_INIT = 1024
_WINDOW_MAX = 8192
#: Accesses replayed per scalar burst while the policy's ``on_access`` is
#: observable (e.g. GMT-Reuse during its sampling window) — between bursts
#: we re-check ``hits_batchable`` so the batch path engages the moment the
#: sampler closes.
_SCALAR_STRIDE = 256
#: Consecutive empty hit-prefixes (probe found an immediate miss) before
#: the replay stops probing and bursts scalar for a stride.  Bounds the
#: probe overhead on miss-dominated streams to ~1 fancy index per
#: ``_SCALAR_STRIDE`` accesses, so the vector engine degrades to ~scalar
#: speed instead of below it when Tier-1 is thrashing.
_MISS_STREAK_LIMIT = 4
#: Warps gathered per chunk when streaming a generic iterable trace.
_STREAM_CHUNK_WARPS = 4096


class VectorPageStore:
    """Dense parallel arrays of per-page metadata, indexed by page id.

    One store backs a runtime's page table *and* its Tier-1 clock, so the
    batch path reads tier ids, prefetch flags, dirty bits and clock frames
    with pure fancy indexing.  Arrays grow geometrically on demand; page
    ids are assumed reasonably dense (they are: workloads number pages
    ``0..footprint``).  Sparse gigantic ids — e.g. the serve layer's
    namespaced ``tenant << 32`` pages — exceed :data:`MAX_PAGES` and raise,
    which is why the serve multiplexer always runs the scalar engine.
    """

    #: Hard cap on the dense address space (64 Mi pages ~= several GiB of
    #: metadata).  Beyond this, use ``engine="scalar"``.
    MAX_PAGES = 1 << 26

    __slots__ = (
        "size",
        "loc",
        "dirty",
        "prefetched",
        "last_access",
        "last_evict",
        "access_count",
        "evict_count",
        "t1_frame",
    )

    def __init__(self, initial: int = 1024) -> None:
        initial = max(1, initial)
        self.size = initial
        self.loc = np.full(initial, _T3_CODE, dtype=np.int8)
        self.dirty = np.zeros(initial, dtype=bool)
        self.prefetched = np.zeros(initial, dtype=bool)
        self.last_access = np.full(initial, -1, dtype=np.int64)
        self.last_evict = np.full(initial, -1, dtype=np.int64)
        self.access_count = np.zeros(initial, dtype=np.int64)
        self.evict_count = np.zeros(initial, dtype=np.int64)
        self.t1_frame = np.full(initial, -1, dtype=np.int32)

    def ensure(self, n: int) -> None:
        """Grow the arrays to cover page ids ``0..n-1``."""
        if n <= self.size:
            return
        if n > self.MAX_PAGES:
            raise SimulationError(
                f"page id {n - 1} exceeds the vector engine's dense page-id "
                f"capacity ({self.MAX_PAGES}); run this trace with "
                "engine='scalar'"
            )
        new = min(max(n, self.size * 2), self.MAX_PAGES)
        self.loc = self._grow(self.loc, new, _T3_CODE)
        self.dirty = self._grow(self.dirty, new, False)
        self.prefetched = self._grow(self.prefetched, new, False)
        self.last_access = self._grow(self.last_access, new, -1)
        self.last_evict = self._grow(self.last_evict, new, -1)
        self.access_count = self._grow(self.access_count, new, 0)
        self.evict_count = self._grow(self.evict_count, new, 0)
        self.t1_frame = self._grow(self.t1_frame, new, -1)
        self.size = new

    @staticmethod
    def _grow(arr: np.ndarray, new: int, fill) -> np.ndarray:
        out = np.full(new, fill, dtype=arr.dtype)
        out[: arr.shape[0]] = arr
        return out


class VectorPageState(PageState):
    """A :class:`PageState` view over one :class:`VectorPageStore` row.

    The scalar miss pipeline keeps mutating ``state.location``,
    ``state.dirty`` etc.; these data descriptors route every read and
    write to the shared arrays, so the scalar and batch paths can never
    disagree about a page.  ``policy_state`` stays a plain per-page dict —
    it holds arbitrary policy scratch (Markov histories, pending
    predictions) that has no array shape.
    """

    def __init__(self, page: int, store: VectorPageStore) -> None:
        store.ensure(page + 1)
        self.page = page
        self._store = store
        self.policy_state = {}

    @property
    def location(self) -> PageLocation:
        return _LOC_FROM_CODE[self._store.loc[self.page]]

    @location.setter
    def location(self, value: PageLocation) -> None:
        self._store.loc[self.page] = value.value

    @property
    def dirty(self) -> bool:
        return bool(self._store.dirty[self.page])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._store.dirty[self.page] = value

    @property
    def prefetched(self) -> bool:
        return bool(self._store.prefetched[self.page])

    @prefetched.setter
    def prefetched(self, value: bool) -> None:
        self._store.prefetched[self.page] = value

    @property
    def last_access_ts(self) -> int | None:
        ts = self._store.last_access[self.page]
        return None if ts < 0 else int(ts)

    @last_access_ts.setter
    def last_access_ts(self, value: int | None) -> None:
        self._store.last_access[self.page] = -1 if value is None else value

    @property
    def last_eviction_ts(self) -> int | None:
        ts = self._store.last_evict[self.page]
        return None if ts < 0 else int(ts)

    @last_eviction_ts.setter
    def last_eviction_ts(self, value: int | None) -> None:
        self._store.last_evict[self.page] = -1 if value is None else value

    @property
    def access_count(self) -> int:
        return int(self._store.access_count[self.page])

    @access_count.setter
    def access_count(self, value: int) -> None:
        self._store.access_count[self.page] = value

    @property
    def eviction_count(self) -> int:
        return int(self._store.evict_count[self.page])

    @eviction_count.setter
    def eviction_count(self, value: int) -> None:
        self._store.evict_count[self.page] = value


class VectorPageTable(PageTable):
    """Page table whose entries are views over a :class:`VectorPageStore`.

    ``_entries`` still maps page id -> state object, because the miss
    pipeline and the policies hold on to state objects; but the per-page
    *data* lives in the store.  Every page ever accessed takes at least
    one miss (all pages start on Tier-3), so every resident page has an
    entry here — the batch path never needs to create one.
    """

    def __init__(self, store: VectorPageStore) -> None:
        super().__init__()
        self._store = store

    def lookup(self, page: int) -> PageState:
        if page < 0:
            raise ValueError(f"page ids must be non-negative, got {page}")
        state = self._entries.get(page)
        if state is None:
            state = VectorPageState(page, self._store)
            self._entries[page] = state
        return state


class VectorClock:
    """Clock replacement over numpy frame arrays, byte-compatible with
    :class:`~repro.mem.clock_replacement.ClockReplacement`.

    The sweep methods are literal ports of the scalar algorithm (misses
    are scalar anyway; an identical sweep is the cheapest way to guarantee
    identical victims).  What the arrays buy is :meth:`touch_many` — the
    per-hit reference-bit set becomes one fancy-indexed store, with the
    page -> frame map held in :attr:`VectorPageStore.t1_frame` instead of
    a dict.
    """

    def __init__(self, capacity: int, store: VectorPageStore) -> None:
        if capacity < 0:
            raise CapacityError(f"negative clock capacity {capacity}")
        self.capacity = capacity
        self._store = store
        self._pages = np.full(capacity, -1, dtype=np.int64)
        self._refbits = np.zeros(capacity, dtype=bool)
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._hand = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, page: int) -> bool:
        return self._frame_of(page) != -1

    def _frame_of(self, page: int) -> int:
        t1f = self._store.t1_frame
        if page < 0 or page >= t1f.shape[0]:
            return -1
        return int(t1f[page])

    @property
    def full(self) -> bool:
        return not self._free

    def insert(self, page: int, referenced: bool = True) -> None:
        """Install ``page`` in a free frame (reference bit set by default,
        since insertion is itself an access)."""
        if self._frame_of(page) != -1:
            raise PageStateError(f"page {page} already tracked by clock")
        if not self._free:
            raise CapacityError("clock is full; call evict() first")
        frame = self._free.pop()
        self._pages[frame] = page
        self._refbits[frame] = referenced
        self._store.ensure(page + 1)
        self._store.t1_frame[page] = frame
        self._count += 1

    def touch(self, page: int) -> None:
        """Set the reference bit for ``page`` (called on every Tier hit)."""
        frame = self._frame_of(page)
        if frame == -1:
            raise PageStateError(f"page {page} not tracked by clock")
        self._refbits[frame] = True

    def touch_many(self, pages: np.ndarray) -> None:
        """Set the reference bits for a batch of tracked pages at once.

        Callers guarantee every page is tracked (the batch hit path only
        feeds Tier-1 residents); duplicates are fine.
        """
        self._refbits[self._store.t1_frame[pages]] = True

    def remove(self, page: int) -> None:
        """Drop ``page`` from the clock (promotion or external eviction)."""
        frame = self._frame_of(page)
        if frame == -1:
            raise PageStateError(f"page {page} not tracked by clock")
        self._pages[frame] = -1
        self._refbits[frame] = False
        self._store.t1_frame[page] = -1
        self._free.append(frame)
        self._count -= 1

    def select_victim(self) -> int:
        """Sweep the hand and return (and remove) the next victim page."""
        if not self._count:
            raise PageStateError("clock is empty; nothing to evict")
        pages = self._pages
        refbits = self._refbits
        capacity = self.capacity
        hand = self._hand
        while True:
            page = pages[hand]
            if page == -1:
                hand = (hand + 1) % capacity
                continue
            if refbits[hand]:
                refbits[hand] = False
                hand = (hand + 1) % capacity
                continue
            hand = (hand + 1) % capacity
            self._hand = hand
            self.remove(int(page))
            return int(page)

    def select_victim_where(self, predicate) -> int | None:
        """Filtered clock sweep: evict the next victim satisfying
        ``predicate``; non-matching pages' reference bits stay untouched.
        Returns ``None`` when no tracked page matches."""
        if not any(predicate(int(p)) for p in self._pages if p != -1):
            return None
        pages = self._pages
        refbits = self._refbits
        capacity = self.capacity
        hand = self._hand
        # Two sweeps bound the scan: the first clears matching pages'
        # reference bits, the second must then find a clear one.
        for _ in range(2 * capacity + 1):
            page = pages[hand]
            if page == -1 or not predicate(int(page)):
                hand = (hand + 1) % capacity
                continue
            if refbits[hand]:
                refbits[hand] = False
                hand = (hand + 1) % capacity
                continue
            hand = (hand + 1) % capacity
            self._hand = hand
            self.remove(int(page))
            return int(page)
        self._hand = hand
        raise PageStateError("filtered clock sweep failed to converge")  # pragma: no cover

    def pages(self) -> list[int]:
        """Snapshot of tracked pages in frame order (test helper)."""
        return [int(p) for p in self._pages if p != -1]


# ----------------------------------------------------------------------
# trace materialization
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class TraceArrays:
    """A warp trace flattened to its coalesced access stream.

    ``pages[k]``/``writes[k]`` describe the k-th coalesced access exactly
    as the scalar ``access_warp`` loop would issue it; ``n_warps`` is the
    number of warp instructions the stream came from.  ``warps[k]`` is
    the 1-based warp-instruction count up to and including access ``k``'s
    warp — instrumented replays restore ``stats.warp_instructions`` from
    it so window cuts and audits observe the same mid-run value the
    scalar ``access_warp`` loop would have accumulated.
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


# ----------------------------------------------------------------------
# the engine mixin
# ----------------------------------------------------------------------
class VectorEngineMixin:
    """Mixes the SoA replay loop into a :class:`GMTRuntime` subclass.

    Composition contract: the base class must inherit its ``run`` /
    ``access_warp`` / ``access`` path from :class:`GMTRuntime` (true for
    all the baselines — they only re-price costs in ``__init__``).  Use
    :func:`vector_variant` rather than composing by hand.
    """

    engine_name = "vector"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        store = VectorPageStore()
        self._vstore = store
        self.page_table = VectorPageTable(store)
        # Only the plain clock has a vector twin; a policy-zoo Tier-1
        # structure (s3fifo, mglru, ...) keeps its scalar implementation
        # and the whole replay falls back to the scalar loop.
        if type(self.t1_clock) is ClockReplacement:
            self.t1_clock = VectorClock(self.t1_clock.capacity, store)
        self._window = _WINDOW_INIT

    # -- fallback gate --------------------------------------------------
    def _fallback_reason(self) -> str | None:
        """Why the batch path cannot run (None = it can).

        Exactly one thing forces the inherited scalar loop: a policy-zoo
        Tier-1 structure with no vector twin.  Everything that can be
        attached observes only scalar-side events (misses, evictions,
        window cuts, audits) and rides the batch path through
        :meth:`_batch_observers`; the phase profiler only reads frames.
        """
        if not isinstance(self.t1_clock, VectorClock):
            return (
                f"tier1_eviction={self.config.tier1_eviction!r} has no "
                "vector twin"
            )
        return None

    def engine_resolution(self) -> tuple[str, str]:
        """The engine the next ``run`` will actually use, with the reason
        — the surface ``gmt-sim``/``gmt-serve`` print and export."""
        reason = self._fallback_reason()
        if reason is not None:
            return "scalar", reason
        return "vector", "no per-access consumers attached"

    def _batch_observers(self) -> BatchObserverChain | None:
        """The per-batch observers of what is attached (None: nothing
        observes mid-run state, so hit runs retire uncapped)."""
        observers = []
        if self._obs is not None:
            observers.append(self._obs.batch_observer())
        if self._check_every is not None:
            observers.append(AuditBatchObserver(self._check_every))
        return BatchObserverChain(observers) if observers else None

    # -- replay ---------------------------------------------------------
    def run(self, trace):
        if self._fallback_reason() is not None:
            return super().run(trace)
        chain = self._batch_observers()
        if isinstance(trace, Workload):
            trace = materialize_trace(trace)
        if isinstance(trace, TraceArrays):
            chunks = [(trace.n_warps, trace.pages, trace.writes, trace.warps)]
        else:
            # One-shot iterable (e.g. a tenant stream): bounded chunks.
            chunks = _iter_trace_chunks(trace, _STREAM_CHUNK_WARPS)
        for n_warps, pages, writes, warps in chunks:
            self._replay_flat(pages, writes, warps, n_warps, chain)
        if self._obs is not None:
            # Mirror the scalar run(): flush the final partial window so
            # the replay tail reaches telemetry.windows() (and gmt-top's
            # on_window feed) under the batch path too.
            self._obs.finish()
        return self.result()

    def _replay_flat(
        self,
        pages: np.ndarray,
        writes: np.ndarray,
        warps: np.ndarray,
        n_warps: int,
        chain: BatchObserverChain | None,
    ) -> None:
        """Replay one flat coalesced-access chunk of ``n_warps`` warps.

        Hits retire in batches; every miss (and every access while the
        policy's ``on_access`` is observable) goes through the inherited
        scalar ``access``, so the miss pipeline is *the* scalar pipeline.

        ``chain`` (None when nothing is attached) caps each batch to end
        just before the next access an observer must see on the scalar
        path — a windowed-snapshot boundary or a periodic audit — and is
        notified after each retired run.  Under a chain,
        ``stats.warp_instructions`` is restored from ``warps`` (the
        chunk's cumulative warp count per access) around every
        scalar-replayed access and every retired batch, so a window cut
        or an audit observes exactly the value the scalar
        ``access_warp`` loop would have accumulated by that access.
        """
        stats = self.stats
        warp_base = stats.warp_instructions
        if chain is None:
            # Nothing observes the mid-run warp count: add it up front.
            warps = None
            stats.warp_instructions += n_warps
        n = pages.shape[0]
        if n == 0:
            stats.warp_instructions = warp_base + n_warps
            return
        store = self._vstore
        # Headroom covers sequential prefetch candidates past the chunk
        # maximum, so no array grows (and invalidates local views) while
        # the chunk replays.
        store.ensure(int(pages.max()) + 1 + self.config.prefetch_degree)
        check_prefetched = bool(self.config.prefetch_degree)
        access = self.access
        window = self._window
        miss_streak = 0
        i = 0
        while i < n:
            if not self.policy.hits_batchable or miss_streak >= _MISS_STREAK_LIMIT:
                # Scalar burst: either the policy observes every access,
                # or Tier-1 is thrashing and probing is pure overhead.
                # The scalar path is exact for hits and misses alike, so
                # this is a speed decision, never a semantic one.
                end = min(i + _SCALAR_STRIDE, n)
                while i < end:
                    if warps is not None:
                        stats.warp_instructions = warp_base + int(warps[i])
                    access(int(pages[i]), write=bool(writes[i]))
                    i += 1
                miss_streak = 0
                continue
            w = min(window, n - i)
            if chain is not None:
                room = chain.limit(stats.coalesced_accesses)
                if room <= 0:
                    # The next access is one an observer must see on the
                    # scalar path (a window cut captures it half-applied;
                    # an audit runs just before it), so replay it there.
                    stats.warp_instructions = warp_base + int(warps[i])
                    access(int(pages[i]), write=bool(writes[i]))
                    i += 1
                    continue
                if room < w:
                    w = room
            chunk = pages[i : i + w]
            hits = store.loc[chunk] == _T1_CODE
            if check_prefetched:
                hits &= ~store.prefetched[chunk]
            if hits.all():
                run_len = w
            else:
                run_len = int(np.argmax(~hits))
            if run_len:
                self._batch_hits(chunk[:run_len], writes[i : i + run_len])
                i += run_len
                if chain is not None:
                    stats.warp_instructions = warp_base + int(warps[i - 1])
                    chain.on_hits(run_len, stats.coalesced_accesses)
                miss_streak = 0
                if run_len == w:
                    window = min(window * 2, _WINDOW_MAX)
                    continue
            else:
                miss_streak += 1
            window = max(_WINDOW_MIN, window // 2)
            # The blocking access — a miss, or a prefetched page's first
            # demand touch — replays scalar.
            if warps is not None:
                stats.warp_instructions = warp_base + int(warps[i])
            access(int(pages[i]), write=bool(writes[i]))
            i += 1
        self._window = window
        # Trailing warps with no coalesced accesses still count.
        stats.warp_instructions = warp_base + n_warps

    def _batch_hits(self, chunk: np.ndarray, writes: np.ndarray) -> None:
        """Retire ``k`` consecutive Tier-1 hits as array operations.

        Mirrors the scalar hit path exactly: one VTD tick per access with
        last-occurrence timestamps (``np.maximum.at`` is unbuffered, and
        a page's prior stamp is always <= the batch base), access-count
        bumps, stats, sequentially-rounded compute cost, queueing-model
        arrivals, dirty marks for writes, clock reference bits.
        """
        k = chunk.shape[0]
        store = self._vstore
        base = self.vts.now
        self.vts.advance(k)
        np.maximum.at(
            store.last_access,
            chunk,
            np.arange(base + 1, base + k + 1, dtype=np.int64),
        )
        np.add.at(store.access_count, chunk, 1)
        self.stats.coalesced_accesses += k
        self.stats.t1_hits += k
        self.cost.add_compute_batch(self.config.platform.gpu_access_ns, k)
        queueing = self._queueing_model()
        if queueing is not None:
            queueing.on_hits(k)
        if writes.any():
            store.dirty[chunk[writes]] = True
        self.t1_clock.touch_many(chunk)


# ----------------------------------------------------------------------
# variant factory
# ----------------------------------------------------------------------
_VARIANT_CACHE: dict[type, type] = {}


def vector_variant(runtime_cls: type) -> type:
    """The vector-engine subclass of ``runtime_cls`` (memoized).

    ``vector_variant(GMTRuntime)`` is :class:`VectorReplayEngine`;
    ``vector_variant(BamRuntime)`` is a ``VectorBamRuntime``; and so on.
    Works for any runtime whose access path is inherited unchanged from
    :class:`GMTRuntime`.
    """
    if issubclass(runtime_cls, VectorEngineMixin):
        return runtime_cls
    variant = _VARIANT_CACHE.get(runtime_cls)
    if variant is None:
        variant = type(
            "Vector" + runtime_cls.__name__,
            (VectorEngineMixin, runtime_cls),
            {"__module__": __name__},
        )
        _VARIANT_CACHE[runtime_cls] = variant
    return variant


class VectorReplayEngine(VectorEngineMixin, GMTRuntime):
    """:class:`GMTRuntime` with the SoA batch replay loop."""


_VARIANT_CACHE[GMTRuntime] = VectorReplayEngine
