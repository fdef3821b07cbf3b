"""Vector replay engine: Tier-1 hit runs retired in batches.

The scalar :class:`~repro.core.runtime.GMTRuntime` pays one Python call
chain per coalesced access: a page-table lookup, a VTD stamp, an enum
comparison, a clock touch, half a dozen attribute increments.  On a
stream of Tier-1 hits that is almost all the work there is.

This engine keeps the runtime's own structures (its :class:`PageTable`
rows and its :class:`ClockReplacement`), so every miss runs the
inherited scalar pipeline, byte for byte and cost for cost.  What it
adds is one dense bit per page (:class:`HitMap`: Tier-1 resident and
not a pending prefetch), which the rows keep current.  The replay loop
finds maximal hit prefixes with one fancy-indexed probe of the map and
retires them in :meth:`VectorEngineMixin._batch_hits`, with numpy work
per run and Python work once per *distinct* page of the run.

Byte-identity with the scalar engine is a hard requirement (the
``gmt-check`` differential harness enforces it, see
``repro.check.differential``), which dictates the design:

- a batched run retires the state a run of scalar hits would leave: the
  VTD clock advance, each page's last-access stamp, stats increments,
  compute-cost accrual, queueing-model arrivals, dirty marks, clock
  reference bits;
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
  Tier-1 structure other than the plain clock demotes the whole run.

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
from repro.errors import SimulationError
from repro.mem.clock_replacement import ClockReplacement
from repro.mem.page import PageLocation, PageState
from repro.mem.page_table import PageTable
from repro.obs.batch import AuditBatchObserver, BatchObserverChain
from repro.sim.gpu import WarpAccess, coalesce
from repro.workloads.trace import Workload

__all__ = [
    "HitMap",
    "TraceArrays",
    "VectorEngineMixin",
    "VectorReplayEngine",
    "materialize_trace",
    "vector_variant",
]

_TIER1 = PageLocation.TIER1

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
#: probe overhead on runs of misses to ~1 fancy index per
#: ``_SCALAR_STRIDE`` accesses; short hit runs between misses still pay
#: a probe and a batch each (docs/performance.md has the measured cost).
_MISS_STREAK_LIMIT = 4
#: Warps gathered per chunk when streaming a generic iterable trace.
_STREAM_CHUNK_WARPS = 4096


class HitMap:
    """One bit per page id, set iff the page is Tier-1 resident and not a
    pending prefetch: all the batch path reads of the page table.

    A vector runtime's page-table rows are :class:`_MappedPageState`
    objects, whose ``location`` and ``prefetched`` setters write their
    page's bit, so the map follows every change the scalar pipeline
    makes.  The arrays grow geometrically on demand; page ids are
    assumed reasonably dense (they are: workloads number pages
    ``0..footprint``).  Sparse gigantic ids, e.g. the serve layer's
    namespaced ``tenant << 32`` pages, exceed :data:`MAX_PAGES` and
    raise, which is why the serve multiplexer always runs the scalar
    engine.
    """

    #: Hard cap on the dense page-id space (64 Mi pages, 9 bytes each).
    #: Beyond this, use ``engine="scalar"``.
    MAX_PAGES = 1 << 26

    __slots__ = ("bits", "stamps")

    def __init__(self, initial: int = 1024) -> None:
        self.bits = np.zeros(initial, dtype=bool)
        #: Scratch for :meth:`VectorEngineMixin._batch_hits`: each
        #: page's last virtual timestamp within a hit run.
        self.stamps = np.zeros(initial, dtype=np.int64)

    def ensure(self, n: int) -> None:
        """Grow the arrays to cover page ids ``0..n-1``."""
        size = self.bits.shape[0]
        if n <= size:
            return
        if n > self.MAX_PAGES:
            raise SimulationError(
                f"page id {n - 1} exceeds the vector engine's dense page-id "
                f"capacity ({self.MAX_PAGES}); run this trace with "
                "engine='scalar'"
            )
        grow = min(max(n, size * 2), self.MAX_PAGES) - size
        self.bits = np.pad(self.bits, (0, grow))
        self.stamps = np.pad(self.stamps, (0, grow))

    def row(self, page: int) -> PageState:
        """The page-table row of a page seen for the first time."""
        self.ensure(page + 1)
        return _MappedPageState(page, self)


class _MappedPageState(PageState):
    """A :class:`PageState` whose ``location`` and ``prefetched`` setters
    write the page's :class:`HitMap` bit; every other field is a plain
    slot."""

    __slots__ = ("_map", "_location", "_prefetched")

    def __init__(self, page: int, hit_map: HitMap) -> None:
        self._map = hit_map
        self._prefetched = False
        super().__init__(page)

    @property
    def location(self) -> PageLocation:
        return self._location

    @location.setter
    def location(self, value: PageLocation) -> None:
        self._location = value
        self._map.bits[self.page] = value is _TIER1 and not self._prefetched

    @property
    def prefetched(self) -> bool:
        return self._prefetched

    @prefetched.setter
    def prefetched(self, value: bool) -> None:
        self._prefetched = value
        self._map.bits[self.page] = self._location is _TIER1 and not value


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
    """Mixes the batched replay loop into a :class:`GMTRuntime` subclass.

    Composition contract: the base class must inherit its ``run`` /
    ``access_warp`` / ``access`` path from :class:`GMTRuntime` (true for
    all the baselines — they only re-price costs in ``__init__``).  Use
    :func:`vector_variant` rather than composing by hand.
    """

    engine_name = "vector"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._hit_map = HitMap()
        # Still the scalar page table (nothing has looked a page up
        # yet), with rows that keep the hit map current.
        self.page_table = PageTable(self._hit_map.row)
        self._window = _WINDOW_INIT

    # -- fallback gate --------------------------------------------------
    def _fallback_reason(self) -> str | None:
        """Why the batch path cannot run (None = it can).

        Exactly one thing forces the inherited scalar loop: a policy-zoo
        Tier-1 structure (s3fifo, mglru, ...), whose per-hit bookkeeping
        one batched touch per page would not reproduce.  Everything that
        can be attached observes only scalar-side events (misses,
        evictions, window cuts, audits) and rides the batch path through
        :meth:`_batch_observers`; the phase profiler only reads frames.
        """
        if type(self.t1_clock) is not ClockReplacement:
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
        # Headroom covers sequential prefetch candidates past the chunk
        # maximum, so the map does not grow while the chunk replays.
        self._hit_map.ensure(int(pages.max()) + 1 + self.config.prefetch_degree)
        bits = self._hit_map.bits
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
            hits = bits[chunk]
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
        """Retire ``k`` consecutive Tier-1 hits.

        Leaves the state ``k`` scalar hits would: the VTD clock ``k``
        ticks on, each page stamped with the tick of its last
        occurrence, stats, sequentially-rounded compute cost,
        queueing-model arrivals, dirty marks for writes, clock
        reference bits.  A hit run holds at most Tier-1-capacity
        distinct pages, and the per-page work runs once for each.
        """
        k = chunk.shape[0]
        base = self.vts.now
        self.vts.advance(k)
        # ``np.maximum.at`` is unbuffered, so a page repeated in the run
        # keeps its last tick; the scratch entries it overwrites are
        # earlier ticks, never newer than the batch base.
        stamps = self._hit_map.stamps
        ticks = np.arange(base + 1, base + k + 1, dtype=np.int64)
        np.maximum.at(stamps, chunk, ticks)
        distinct = np.sort(chunk)
        distinct = distinct[np.diff(distinct, prepend=-1) != 0]
        row = self.page_table.peek
        touch = self.t1_clock.touch
        for page, stamp in zip(distinct.tolist(), stamps[distinct].tolist()):
            row(page).last_access_ts = stamp
            touch(page)
        if writes.any():
            for page in set(chunk[writes].tolist()):
                row(page).dirty = True
        self.stats.coalesced_accesses += k
        self.stats.t1_hits += k
        self.cost.add_compute_batch(self.config.platform.gpu_access_ns, k)
        queueing = self._queueing_model()
        if queueing is not None:
            queueing.on_hits(k)

    # -- audit ----------------------------------------------------------
    def check_invariants(self) -> None:
        """The scalar structural checks, plus: the hit map's set bits are
        exactly the pages the page table holds in Tier-1 and not as
        pending prefetches.  A bit set for any other page would retire
        a miss as a hit."""
        super().check_invariants()
        hits = [
            state.page
            for state in self.page_table
            if state.location is _TIER1 and not state.prefetched
        ]
        bits = self._hit_map.bits
        expected = np.zeros(bits.shape[0], dtype=bool)
        expected[hits] = True
        wrong = np.flatnonzero(bits != expected)
        if wrong.size:
            page = int(wrong[0])
            raise SimulationError(
                f"hit map bit {bool(bits[page])} for page {page} disagrees "
                "with its page-table state"
            )


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
    """:class:`GMTRuntime` with the batched replay loop."""


_VARIANT_CACHE[GMTRuntime] = VectorReplayEngine
