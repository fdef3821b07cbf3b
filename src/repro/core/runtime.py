"""The GMT runtime: GPU-orchestrated 3-tier demand paging (paper section 2).

One :class:`GMTRuntime` replays a workload's coalesced page-access stream
through the hierarchy:

- **hit path**: page resident in Tier-1 -> touch its clock bit, done.
- **miss path** (Figure 2): look up Tier-2 (costs ~50 ns; a miss there is
  a "wasteful lookup", Figure 10(a)); fetch from Tier-2 over PCIe via the
  configured transfer engine, or from the SSD through the GPU-resident
  NVMe queues.  The up-path always bypasses Tier-2, as in BaM ("we bypass
  host memory in the 'up'-path", section 2).
- **eviction pipeline**: when Tier-1 is full, clock nominates a victim and
  the policy decides — retain (short-reuse, bounded rounds), place into
  Tier-2 (evicting/bypassing per policy when Tier-2 is full), or bypass to
  Tier-3 (discard clean, write back dirty).

All orchestration costs are charged to the GPU-side cost model with the
GPU's fault-level parallelism — that is what "GPU-orchestrated" means for
performance, and what the HMM baseline lacks.

:meth:`GMTRuntime.run` replays a trace in one loop that retires each
run of Tier-1 hits as a batch and sends every other access through
:meth:`GMTRuntime.access`, the per-access pipeline above.  Results are
byte-identical to the per-warp reference,
:meth:`GMTRuntime.replay_per_warp`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.core import vector
from repro.core.config import GMTConfig
from repro.core.placement import PlacementDecision
from repro.core.policies import PlacementPolicy, make_policy
from repro.core.stats import RuntimeStats
from repro.errors import SimulationError
from repro.mem.clock_replacement import ClockReplacement
from repro.mem.page import PageLocation, PageState
from repro.mem.page_table import PageTable
from repro.mem.tier2_order import Tier2Fifo
from repro.obs.lifecycle import LifecycleKind
from repro.policyzoo.registry import make_eviction_policy
from repro.reuse.vtd import VirtualTimestampClock
from repro.sim.cost import CostBreakdown, CostModel
from repro.sim.gpu import WarpAccess, coalesce
from repro.sim.nvme import NvmeSSD
from repro.sim.pcie import PCIeLink
from repro.sim.transfer import make_engine
from repro.workloads.trace import Workload

#: Adaptive hit-window bounds of :meth:`GMTRuntime.run` (batch sizes;
#: tuning only, never semantics).
_WINDOW_MIN = 64
_WINDOW_INIT = 1024
_WINDOW_MAX = 8192
#: Accesses per scalar burst of :meth:`GMTRuntime.run`.  Between bursts
#: the loop re-checks ``hits_batchable``, so batches resume the moment
#: e.g. GMT-Reuse's sampling window closes.
_SCALAR_STRIDE = 256
#: Consecutive probes that end at a miss before the loop stops probing
#: and bursts scalar for a stride.  Only a hit run that fills its probe
#: window resets the count, so both runs of misses and short hit runs
#: between misses cost ~1 probe and batch per ``_SCALAR_STRIDE``
#: accesses.
_MISS_STREAK_LIMIT = 4


@dataclass
class RunResult:
    """Outcome of replaying one trace through a runtime."""

    runtime_name: str
    stats: RuntimeStats
    breakdown: CostBreakdown
    page_size: int

    @property
    def elapsed_ns(self) -> float:
        return self.breakdown.elapsed_ns

    @property
    def ssd_io_bytes(self) -> int:
        return self.stats.io_bytes(self.page_size)

    def speedup_over(self, other: "RunResult") -> float:
        """``other.elapsed / self.elapsed`` — >1 means self is faster."""
        if self.elapsed_ns <= 0:
            raise SimulationError("cannot compute speedup: zero elapsed time")
        if other.elapsed_ns <= 0:
            raise SimulationError(
                "cannot compute speedup: baseline has zero elapsed time"
            )
        return other.elapsed_ns / self.elapsed_ns


class GMTRuntime:
    """GPU-orchestrated 3-tier (GPU memory / host memory / SSD) runtime.

    Args:
        config: the geometry, policy and platform to run.
        policy_factory: optional override constructing a custom
            :class:`~repro.core.policies.PlacementPolicy` from
            ``(config, stats, vts, rng)`` — used by the Belady-style
            oracle and by experiments with bespoke policies.
    """

    name = "GMT"
    #: Who services faults — exported as a telemetry label; the
    #: CPU-orchestrated baselines override this with ``"host"``.
    orchestration = "gpu"
    #: Extra constant labels a runtime variant wants on its metrics.
    obs_extra_labels: dict[str, str] = {}

    def __init__(self, config: GMTConfig, policy_factory=None) -> None:
        self.config = config
        platform = config.platform
        self.stats = RuntimeStats()
        self.page_table = PageTable()
        #: One bit per page, Tier-1 resident and not a pending prefetch;
        #: :meth:`run` probes it for hit runs.  Written only where that
        #: can change: a demand fill and a pending prefetch's first
        #: demand touch (:meth:`access`) set it, a Tier-1 eviction
        #: (:meth:`_ensure_tier1_frame`) clears it.
        self._hit_map = vector.HitMap()
        #: Probe window of :meth:`run`, adapted as it replays.
        self._window = _WINDOW_INIT
        self.vts = VirtualTimestampClock()
        self.rng = random.Random(config.seed)

        #: Each tier's eviction structure is its one membership record;
        #: ``config.tier1_frames``/``tier2_frames`` hold the capacities.
        self.t1_clock = make_eviction_policy(
            config.tier1_eviction, config.tier1_frames
        )

        if policy_factory is None:
            policy_factory = make_policy
        self.policy: PlacementPolicy = policy_factory(
            config, self.stats, self.vts, self.rng
        )
        if config.tier2_frames > 0:
            t2_eviction = config.tier2_eviction
            if t2_eviction is None:
                # Historical derivation: GMT-TierOrder runs a clock over
                # Tier-2, every other placement policy a plain FIFO.
                t2_eviction = "clock" if self.policy.tier2_uses_clock else "fifo"
            self._t2_order = make_eviction_policy(t2_eviction, config.tier2_frames)
        else:
            self._t2_order = Tier2Fifo()

        self.engine = make_engine(config.transfer_engine)
        #: Amortised critical-path cost of one Tier-1<->Tier-2 page move:
        #: demand misses arrive in bursts across warps, so engine overheads
        #: (pinning, DMA descriptors) spread over a nominal batch.
        batch = config.transfer_batch_pages
        self._t2_move_ns = (
            self.engine.transfer_time_ns(batch, page_size=config.page_size) / batch
        )

        self.pcie = PCIeLink(bandwidth=platform.pcie_bandwidth)
        self.ssd = NvmeSSD(
            read_latency_ns=platform.ssd_read_latency_ns,
            write_latency_ns=platform.ssd_write_latency_ns,
            read_bandwidth=platform.ssd_read_bandwidth,
            write_bandwidth=platform.ssd_write_bandwidth,
            queue_depth=platform.nvme_queue_depth,
        )
        self.cost = CostModel(fault_concurrency=platform.gpu_fault_concurrency)
        #: Extra critical-path cost charged to every Tier-1 miss.  Zero for
        #: GPU-orchestrated runtimes; the HMM baseline sets it to the host
        #: software stack's per-fault overhead.
        self._extra_fault_ns = 0.0
        #: Optional telemetry (see :mod:`repro.obs`).  None is the
        #: null-sink fast path: each emission point costs one attribute
        #: check and nothing else.
        self._obs = None
        #: Optional page-lifecycle flight recorder (see
        #: :mod:`repro.obs.lifecycle`).  Same discipline: None is the
        #: default and each emission site costs one attribute check.
        self._flight = None
        #: The attached phase profiler (see :mod:`repro.prof`), or None.
        #: A ``SIGPROF`` timer samples the main thread's frames, so the
        #: hot path never reads this; it only guards double-attach.
        self._prof = None
        #: Queueing time model, built lazily (subclasses adjust the
        #: orchestration parameters it reads after construction).
        self._queueing = None
        #: Periodic conformance checking: when set, ``access`` runs
        #: :meth:`check_invariants` plus the stats-identity audit every
        #: this many coalesced accesses (None = never, the hot-path
        #: default — one attribute check per access, like telemetry).
        self._check_every: int | None = None
        #: Per-tenant residency counts (the serving layer's
        #: :class:`~repro.serve.quota.TierQuotas`), or None.  Same
        #: discipline as telemetry: each of the six places a page enters
        #: or leaves a tier costs one attribute check when unset.
        self._tier_counts = None
        self.name = f"GMT-{self.policy.name}"

    def engine_resolution(self) -> tuple[str, str]:
        """How :meth:`run` replays, with the reason: ``"vector"``, since
        every runtime batches its hit runs.  Kept for callers outside
        the package that still read this label."""
        return "vector", "Tier-1 hit runs retire in batches"

    # ------------------------------------------------------------------
    # queueing time model (optional, config.time_model == "queueing")
    # ------------------------------------------------------------------
    def _queueing_model(self):
        """Build (once) and return the queueing model, or None."""
        if self.config.time_model != "queueing":
            return None
        if self._queueing is None:
            from repro.sim.queueing import QueueingModel

            self._queueing = QueueingModel(
                platform=self.config.platform,
                page_size=self.config.page_size,
                fault_concurrency=self.cost.fault_concurrency,
                extra_fault_ns=self._extra_fault_ns,
                t2_move_ns=self._t2_move_ns,
                ssd_read_bandwidth=self.ssd.read_bandwidth,
                ssd_write_bandwidth=self.ssd.write_bandwidth,
            )
        return self._queueing

    # ------------------------------------------------------------------
    # telemetry (optional, see repro.obs)
    # ------------------------------------------------------------------
    def obs_labels(self) -> dict[str, str]:
        """Constant labels describing this runtime for exported metrics."""
        labels = {
            "runtime": self.name,
            "policy": self.policy.name,
            "orchestration": self.orchestration,
            "tiers": "3" if self.config.tier2_frames > 0 else "2",
        }
        labels.update(self.obs_extra_labels)
        return labels

    def attach_telemetry(self, telemetry=None):
        """Wire a :class:`~repro.obs.telemetry.Telemetry` (a fresh one if
        None) into the runtime's emission points; returns it."""
        if telemetry is None:
            from repro.obs.telemetry import Telemetry

            telemetry = Telemetry()
        self._obs = telemetry.attach(self)
        return telemetry

    def detach_telemetry(self) -> None:
        """Return to the null-sink fast path (telemetry keeps its data)."""
        if self._obs is not None:
            self._obs.detach()
            self._obs = None

    # ------------------------------------------------------------------
    # page-lifecycle flight recorder (optional, see repro.obs.lifecycle)
    # ------------------------------------------------------------------
    def attach_flight_recorder(self, capacity: int | None = 100_000, recorder=None):
        """Start recording page-lifecycle events; returns the recorder.

        Standalone alternative to ``attach_telemetry(Telemetry(lifecycle=...))``
        when only the lifecycle log is wanted.  Bounded drop-oldest ring;
        detach with :meth:`detach_flight_recorder`.
        """
        if recorder is None:
            from repro.obs.lifecycle import LifecycleRecorder

            recorder = LifecycleRecorder(capacity=capacity)
        if recorder.clock is None:
            cost = self.cost
            recorder.clock = lambda: cost.compute_ns + cost.fault_latency_ns
        self._flight = recorder
        return recorder

    def detach_flight_recorder(self) -> None:
        """Stop lifecycle recording (the recorder keeps its events)."""
        self._flight = None

    # ------------------------------------------------------------------
    # phase profiling (optional, see repro.prof)
    # ------------------------------------------------------------------
    def attach_profiler(self, profiler=None):
        """Start sampling this runtime's phases with a
        :class:`~repro.prof.PhaseProfiler` (a fresh one if None); returns
        the profiler.  Detach with :meth:`detach_profiler`."""
        if profiler is None:
            from repro.prof import PhaseProfiler

            profiler = PhaseProfiler()
        profiler.attach(self)
        return profiler

    def detach_profiler(self) -> None:
        """Stop the attached profiler (it keeps its data)."""
        if self._prof is not None:
            self._prof.detach()

    # ------------------------------------------------------------------
    # periodic conformance checking (optional, see repro.check)
    # ------------------------------------------------------------------
    def enable_periodic_checks(self, every: int | None = 10_000) -> None:
        """Audit the runtime every ``every`` coalesced accesses.

        Each audit runs :meth:`check_invariants` (structural: capacities,
        no page resident in two tiers, page-table/membership agreement)
        plus the stats-identity catalogue
        (:func:`repro.check.identities.assert_conformant`).  ``None``
        disables and restores the null-sink fast path.
        """
        if every is not None and every < 1:
            raise SimulationError(f"check interval must be >= 1, got {every}")
        self._check_every = every

    def _periodic_check(self) -> None:
        from repro.check.identities import assert_conformant

        assert_conformant(self)

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def run(self, trace: Iterable[WarpAccess]) -> RunResult:
        """Replay a trace of warp accesses and return the run's result.

        Runs of Tier-1 hits retire in batches (:meth:`_batch_hits`) and
        every other access goes through :meth:`access`, so the result,
        the final state and what attached telemetry and audits observe
        are byte-identical to :meth:`replay_per_warp`.  A
        :class:`Workload` is flattened once and cached
        (:func:`repro.core.vector.materialize_trace`); any other
        iterable streams in bounded chunks.
        """
        observed = self._obs is not None or self._check_every is not None
        if isinstance(trace, Workload):
            # Looked up through the module at call time, so a caller
            # can wrap trace generation.
            trace = vector.materialize_trace(trace)
        if isinstance(trace, vector.TraceArrays):
            chunks = [trace]
        else:
            # One-shot iterable (e.g. a tenant stream): bounded chunks.
            chunks = vector._iter_trace_chunks(trace, vector._STREAM_CHUNK_WARPS)
        for arrays in chunks:
            self._replay_flat(
                arrays.pages, arrays.writes, arrays.warps, arrays.n_warps, observed
            )
        return self._finish_run()

    def replay_per_warp(self, trace: Iterable[WarpAccess]) -> RunResult:
        """The reference replay: :meth:`access_warp` for each warp, then
        the result.  :meth:`run` must match it byte for byte, and
        ``gmt-check``, ``gmt-bench`` and the property suites compare the
        two."""
        for warp in trace:
            self.access_warp(warp)
        return self._finish_run()

    def _finish_run(self) -> RunResult:
        """End a replay: :meth:`run`, :meth:`replay_per_warp` and the
        servers' loops all finish here."""
        if self._obs is not None:
            # Flush the final partial snapshot window; without this the
            # tail of the replay drops out of telemetry.windows().
            self._obs.finish()
        return self.result()

    def _batch_room(self, position: int) -> int:
        """How many accesses a hit batch starting at ``position`` (the
        coalesced-access count) may retire before the next access that
        attached telemetry or audits must see through :meth:`access`
        (``<= 0``: the next access is one).

        A window cut at position ``b`` captures the ``b``-th access
        half-applied: the window clock ticks after that access's
        ``coalesced_accesses`` and compute counts but before its hit
        counters, which a bulk-retired batch cannot reproduce.  So a
        batch ends just before that access.  A periodic audit runs just
        before the access at each non-zero multiple of its interval, so
        a batch ends there too.  Everything else telemetry records
        (spans, histograms, digests, lifecycle events) happens only on
        the miss path, which always goes through :meth:`access`.
        """
        room = _WINDOW_MAX
        if self._obs is not None:
            room = self._obs.snapshotter.next_cut - 1 - position
        every = self._check_every
        if every is not None:
            offset = position % every
            if position and not offset:
                return 0
            room = min(room, every - offset)
        return room

    def _replay_flat(
        self,
        pages: np.ndarray,
        writes: np.ndarray,
        warps: np.ndarray,
        n_warps: int,
        observed: bool,
    ) -> None:
        """Replay one flat coalesced-access chunk of ``n_warps`` warps.

        The loop probes a window of upcoming accesses in the hit map and
        retires the maximal hit prefix as one batch; the access that
        ends it (a miss, or a prefetched page's first demand touch) goes
        through :meth:`access`, so the miss pipeline is *the* per-access
        pipeline.  While the policy observes every access, or after
        :data:`_MISS_STREAK_LIMIT` probes in a row ended at a miss, it
        replays a :data:`_SCALAR_STRIDE` burst through :meth:`access`
        instead.  Which stretch takes which path is a speed decision,
        never a semantic one.

        When ``observed`` (telemetry or periodic audits are attached),
        :meth:`_batch_room` caps each batch to end just before the next
        access they must see through :meth:`access`, and
        ``stats.warp_instructions`` is restored from ``warps`` (the
        chunk's cumulative warp count per access) around every
        scalar-replayed access and every retired batch, so a window cut
        or an audit observes exactly the value the per-warp loop would
        have accumulated by that access.
        """
        stats = self.stats
        warp_base = stats.warp_instructions
        if not observed:
            # Nothing observes the mid-run warp count: add it up front.
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
                # or probes keep ending at misses and cost more than
                # they retire.
                end = min(i + _SCALAR_STRIDE, n)
                if not observed:
                    for page, write in zip(
                        pages[i:end].tolist(), writes[i:end].tolist()
                    ):
                        access(page, write=write)
                else:
                    for k in range(i, end):
                        stats.warp_instructions = warp_base + int(warps[k])
                        access(int(pages[k]), write=bool(writes[k]))
                i = end
                miss_streak = 0
                continue
            w = min(window, n - i)
            if observed:
                room = self._batch_room(stats.coalesced_accesses)
                if room <= 0:
                    # The next access is one telemetry or an audit must
                    # see on the scalar path, so replay it there.
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
                if observed:
                    stats.warp_instructions = warp_base + int(warps[i - 1])
                if run_len == w:
                    miss_streak = 0
                    window = min(window * 2, _WINDOW_MAX)
                    continue
            miss_streak += 1
            window = max(_WINDOW_MIN, window // 2)
            # The blocking access — a miss, or a prefetched page's first
            # demand touch — replays scalar.
            if observed:
                stats.warp_instructions = warp_base + int(warps[i])
            access(int(pages[i]), write=bool(writes[i]))
            i += 1
        self._window = window
        # Trailing warps with no coalesced accesses still count.
        stats.warp_instructions = warp_base + n_warps

    def _batch_hits(self, chunk: np.ndarray, writes: np.ndarray) -> None:
        """Retire ``k`` consecutive Tier-1 hits.

        Leaves the state ``k`` calls to :meth:`access` would: the VTD
        clock ``k`` ticks on, each page stamped with the tick of its
        last occurrence, stats, sequentially-rounded compute cost,
        queueing-model arrivals, dirty marks for writes, Tier-1
        structure touches.  A hit run holds at most Tier-1-capacity
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
        # The clock's touch only sets a reference bit, so one per
        # distinct page leaves the same state.  The policy-zoo
        # structures count, age or reorder on every touch, so they get
        # one per access, in trace order.
        per_page = type(self.t1_clock) is ClockReplacement
        for page, stamp in zip(distinct.tolist(), stamps[distinct].tolist()):
            row(page).last_access_ts = stamp
            if per_page:
                touch(page)
        if not per_page:
            for page in chunk.tolist():
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

    def access_warp(self, warp: WarpAccess) -> None:
        """Issue one warp memory instruction (coalesced per 64 KB page)."""
        self.stats.warp_instructions += 1
        for page in coalesce(warp):
            self.access(page, write=warp.write)

    def access(self, page: int, write: bool = False) -> None:
        """One coalesced access to ``page``."""
        if (
            self._check_every is not None
            and self.stats.coalesced_accesses
            and self.stats.coalesced_accesses % self._check_every == 0
        ):
            # Audit between accesses: the previous access fully settled,
            # this one has not touched any counter yet.
            self._periodic_check()
        state = self.page_table.lookup(page)
        vtd = self.vts.observe_access(state)
        self.policy.on_access(state, vtd)
        self.stats.coalesced_accesses += 1
        platform = self.config.platform
        self.cost.add_compute(platform.gpu_access_ns)

        queueing = self._queueing_model()
        obs = self._obs
        if obs is not None:
            obs.tick(self.stats.coalesced_accesses)

        if state.location is PageLocation.TIER1:
            if queueing is not None:
                queueing.on_hit()
            self.stats.t1_hits += 1
            self.t1_clock.touch(page)
            if write:
                state.mark_dirty()
            if state.prefetched:
                # First demand access to a prefetched page: account the
                # hit and run the deferred fill bookkeeping (Markov
                # resolution happens at demand time, not prefetch time).
                state.prefetched = False
                self._hit_map.bits[page] = True
                self.stats.prefetch_hits += 1
                resolution = self.policy.on_tier1_fill(state, from_tier2=False)
                if resolution is not None and self._flight is not None:
                    self._record_resolution(page, resolution)
            return

        # ---- demand miss --------------------------------------------------
        self.stats.t1_misses += 1
        fault_ns = self._extra_fault_ns
        from_tier2 = False
        if self.config.tier2_frames > 0:
            self.stats.t2_lookups += 1
            fault_ns += platform.tier2_lookup_ns
            if state.location is PageLocation.TIER2:
                from_tier2 = True
            else:
                self.stats.t2_wasteful_lookups += 1
            if obs is not None:
                obs.span("t2-lookup", "tier2", platform.tier2_lookup_ns,
                         page=page, hit=from_tier2)

        if from_tier2:
            self.stats.t2_hits += 1
            self.stats.t2_fetches += 1
            self._t2_order.remove(page)
            if self._tier_counts is not None:
                self._tier_counts.left(2, page)
            self.pcie.record_h2d(self.config.page_size)
            stall_ns = self._promotion_stall_ns(page)
            if stall_ns > 0.0:
                # Migration governor: the promotion itself cannot be
                # refused (the faulting warp needs the page, and exclusive
                # tiering forbids a host copy), so it queues behind the
                # throttle instead.
                self.stats.promotions_throttled += 1
            fault_ns += platform.host_fetch_latency_ns + self._t2_move_ns + stall_ns
            if obs is not None:
                obs.span("t2-fetch", "tier2",
                         platform.host_fetch_latency_ns + self._t2_move_ns + stall_ns,
                         page=page)
            if self._flight is not None:
                self._flight.emit(
                    LifecycleKind.PROMOTE, page, self.stats.coalesced_accesses,
                    "T2", "T1", "demand-miss",
                    latency_ns=platform.host_fetch_latency_ns + self._t2_move_ns,
                )
        else:
            # Up-path bypasses Tier-2: SSD -> GPU memory directly.
            self.ssd.record_read(self.config.page_size)
            self.stats.ssd_page_reads += 1
            state.dirty = False  # fresh copy of the SSD contents
            fault_ns += platform.ssd_read_latency_ns
            if obs is not None:
                obs.span("ssd-read", "ssd", platform.ssd_read_latency_ns, page=page)
            if self._flight is not None:
                self._flight.emit(
                    LifecycleKind.ADMIT, page, self.stats.coalesced_accesses,
                    "T3", "T1", "demand-miss",
                    latency_ns=platform.ssd_read_latency_ns,
                )

        stats = self.stats
        if queueing is not None:
            # The eviction's side effects, for the queueing model's
            # critical-path sequencing: the counters that record them.
            before = (stats.ssd_page_writes, stats.t2_placements, stats.t2_evictions)
        eviction_ns = self._ensure_tier1_frame()
        if not self.config.async_evictions:
            # Demand-miss path waits for the frame to be freed; with
            # background orchestration (paper section 5, future work) the
            # eviction work overlaps with other faults instead.
            fault_ns += eviction_ns

        if queueing is not None:
            writeback = stats.ssd_page_writes != before[0]
            t2_place = stats.t2_placements != before[1]
            t2_evict = stats.t2_evictions != before[2]
            if self.config.async_evictions:
                if writeback:
                    queueing.on_background_io(self.config.page_size, write=True)
                if t2_place:
                    queueing.on_background_pcie(self.config.page_size)
                writeback = t2_place = t2_evict = False
            queueing.on_miss(
                tier2_lookup=self.config.tier2_frames > 0,
                tier2_hit=from_tier2,
                writeback=writeback,
                tier2_place=t2_place,
                tier2_evict=t2_evict,
            )

        self.t1_clock.insert(page, referenced=True)
        if self._tier_counts is not None:
            self._tier_counts.entered(1, page)
        state.location = PageLocation.TIER1
        state.prefetched = False
        # run() sizes the map for each chunk and the serving runtime for
        # its whole page space, so only a direct access()/access_warp()
        # caller can fill past it: cover this page and the prefetches
        # its miss triggers.
        reach = page + 1 + self.config.prefetch_degree
        if reach > self._hit_map.bits.size:
            self._hit_map.ensure(reach)
        self._hit_map.bits[page] = True
        if write:
            state.dirty = True
        resolution = self.policy.on_tier1_fill(state, from_tier2=from_tier2)
        if resolution is not None and self._flight is not None:
            self._record_resolution(page, resolution)
        self.cost.add_fault_latency(fault_ns)
        if obs is not None:
            obs.on_miss(page, fault_ns, "tier2" if from_tier2 else "ssd")

        if self.config.prefetch_degree and not from_tier2:
            self._prefetch_after(page)

    def _record_resolution(self, page: int, resolution) -> None:
        """Record the RESOLVE event of a fill that resolved ``page``'s
        previous eviction; ``resolution`` is the ``(predicted, actual)``
        pair :meth:`PlacementPolicy.on_tier1_fill` returned."""
        predicted, actual = resolution
        cause = "unresolved"
        if predicted is not None:
            cause = "correct" if predicted is actual else "mispredicted"
        self._flight.emit(
            LifecycleKind.RESOLVE,
            page,
            self.stats.coalesced_accesses,
            cause=cause,
            predicted=None if predicted is None else predicted.name.lower(),
            detail=actual.name.lower(),
        )

    # ------------------------------------------------------------------
    # prefetching (optional)
    # ------------------------------------------------------------------
    def _prefetch_after(self, page: int) -> None:
        """Pull the next sequential pages in with the demand miss.

        Prefetches ride alongside the demand read (SSD bandwidth is
        accounted; the demand miss does not wait), enter the clock with
        their reference bit clear so unused ones are evicted first, and
        defer policy fill bookkeeping to their first demand access.

        The window never crosses :meth:`_address_end`: pages past the
        address space do not exist, so reading them would fabricate
        page-table entries and phantom SSD traffic.
        """
        stop = page + 1 + self.config.prefetch_degree
        end = self._address_end(page)
        if end is not None:
            stop = min(stop, end)
        for candidate in range(page + 1, stop):
            state = self.page_table.lookup(candidate)
            if state.location is not PageLocation.TIER3:
                continue
            self.stats.prefetches_issued += 1
            if self._obs is not None:
                self._obs.instant("prefetch", "ssd", page=candidate)
            if self._flight is not None:
                self._flight.emit(
                    LifecycleKind.ADMIT, candidate, self.stats.coalesced_accesses,
                    "T3", "T1", "prefetch",
                )
            self.ssd.record_read(self.config.page_size)
            stats = self.stats
            stats.ssd_page_reads += 1
            queueing = self._queueing_model()
            if queueing is not None:
                queueing.on_background_io(self.config.page_size)
                writes, places = stats.ssd_page_writes, stats.t2_placements
            eviction_ns = self._ensure_tier1_frame()
            if not self.config.async_evictions:
                self.cost.add_fault_latency(eviction_ns)
            if queueing is not None:
                # The eviction making room for this prefetch happens off
                # every demand miss's critical path, but its traffic still
                # occupies the shared links: dirty victims write to the
                # SSD, Tier-2 placements cross PCIe.
                if stats.ssd_page_writes != writes:
                    queueing.on_background_io(self.config.page_size, write=True)
                if stats.t2_placements != places:
                    queueing.on_background_pcie(self.config.page_size)
            self.t1_clock.insert(candidate, referenced=False)
            if self._tier_counts is not None:
                self._tier_counts.entered(1, candidate)
            state.location = PageLocation.TIER1
            state.dirty = False
            state.prefetched = True

    def _address_end(self, page: int) -> int | None:
        """One past the last page id of ``page``'s address space (None:
        unbounded); the serving runtime returns its tenant's range end."""
        return self.config.footprint_pages

    # ------------------------------------------------------------------
    # eviction pipeline
    # ------------------------------------------------------------------
    def _tier1_needs_eviction(self) -> bool:
        """Whether the next Tier-1 fill must first free a frame.

        The base runtime evicts only when the tier is physically full;
        the serving layer also evicts when the filling tenant has reached
        its Tier-1 frame quota.
        """
        return len(self.t1_clock) >= self.config.tier1_frames

    def _next_tier1_victim(self) -> int:
        """Nominate the next Tier-1 eviction candidate (clock sweep).

        Hook for quota-aware victim selection: the serving layer restricts
        the sweep to an over-budget tenant's own pages.
        """
        return self.t1_clock.select_victim()

    def _ensure_tier1_frame(self) -> float:
        """Free one Tier-1 frame if needed; returns critical-path ns spent."""
        if not self._tier1_needs_eviction():
            return 0.0

        retries = 0
        while True:
            victim = self._next_tier1_victim()
            vstate = self.page_table.lookup(victim)
            plan = self.policy.choose(vstate)
            if plan.decision is not PlacementDecision.RETAIN_TIER1:
                break
            if retries >= self.config.max_clock_retries:
                # Progress guarantee: a retained victim must eventually go
                # somewhere; the nearest tier below is host memory.
                self.stats.retention_overrides += 1
                plan = plan.retention_override
                break
            self.stats.clock_retentions += 1
            if self._flight is not None:
                self._flight.emit(
                    LifecycleKind.RETAIN, victim, self.stats.coalesced_accesses,
                    "T1", "T1", "short-reuse-second-chance",
                    predicted=plan.predicted,
                )
            self.t1_clock.insert(victim, referenced=True)
            retries += 1

        # The victim leaves Tier-1 (a retained one went back into the
        # clock above and stayed resident, so it needs no count).
        if self._tier_counts is not None:
            self._tier_counts.left(1, victim)
        vstate.location = PageLocation.TIER3  # provisional; updated below
        self._hit_map.bits[victim] = False
        self.stats.t1_evictions += 1
        if vstate.prefetched:
            vstate.prefetched = False
            self.stats.prefetch_wasted += 1
        self.policy.on_evicted(vstate, plan)
        if plan.forced_tier2:
            self.stats.forced_t2_placements += 1

        if (
            plan.decision is PlacementDecision.PLACE_TIER2
            and self.config.tier2_frames > 0
        ):
            allow_eviction = self.policy.tier2_evicts_on_full and not plan.forced_tier2
            ns = self._place_in_tier2(
                vstate, plan.cause, plan.predicted, allow_eviction
            )
        else:
            ns = self._bypass_to_tier3(vstate, plan.cause, plan.predicted)
        obs = self._obs
        if obs is not None:
            obs.span("evict", "evict", ns, victim=victim,
                     decision=plan.decision.name, retries=retries)
        return ns

    def _place_in_tier2(
        self,
        state: PageState,
        cause: str,
        predicted: str | None,
        allow_eviction: bool = True,
    ) -> float:
        """Move an evicted Tier-1 page into host memory; ``cause`` and
        ``predicted`` are the decision's, for its lifecycle event.

        ``allow_eviction=False`` implements the free-slot-only placement of
        heuristic-forced (section 2.2) insertions: a page force-placed
        despite a Tier-3 prediction must not displace a resident — every
        Tier-2 resident was placed with at least as strong a claim.
        """
        if not self._admit_tier2(state):
            # Migration admission control (the serving layer's per-tenant
            # Tier-2 quotas): the page is denied a host-memory frame and
            # takes the Tier-3 bypass path instead.
            self.stats.t2_quota_denials += 1
            return self._bypass_to_tier3(state, "t2-quota-denied", predicted)
        if not self._admit_demotion(state):
            # Migration governor: the tenant is out of migration tokens,
            # so the demotion skips the host tier (no Tier-2 frame, no
            # PCIe writeback pressure) and bypasses straight to Tier-3.
            self.stats.demotions_throttled += 1
            return self._bypass_to_tier3(state, "migration-throttled", predicted)
        ns = 0.0
        if len(self._t2_order) >= self.config.tier2_frames:
            if not allow_eviction:
                self.stats.t2_full_bypasses += 1
                return self._bypass_to_tier3(state, "t2-full-bypass", predicted)
            ns += self._evict_from_tier2()

        # Demoted pages arrive cold regardless of the policy's default.
        self._t2_order.insert(state.page, referenced=False)
        if self._tier_counts is not None:
            self._tier_counts.entered(2, state.page)
        state.location = PageLocation.TIER2
        self.stats.t2_placements += 1
        self.pcie.record_d2h(self.config.page_size)
        ns += self._t2_move_ns
        obs = self._obs
        if obs is not None:
            obs.span("place-t2", "tier2", self._t2_move_ns, page=state.page)
        if self._flight is not None:
            self._flight.emit(
                LifecycleKind.DEMOTE, state.page, self.stats.coalesced_accesses,
                "T1", "T2", cause, predicted=predicted,
                dirty=state.dirty, latency_ns=self._t2_move_ns,
            )
        return ns

    def _admit_tier2(self, state: PageState) -> bool:
        """Whether ``state`` may consume a Tier-2 frame (admission hook).

        Always true for the base runtime; the serving layer denies
        placement when the page's tenant is over its Tier-2 quota.
        """
        return True

    def _admit_demotion(self, state: PageState) -> bool:
        """Whether the migration governor admits this Tier-1->Tier-2
        demotion (rate-limit hook).

        Always true for the base runtime; the serving layer spends a
        token from the owning tenant's bucket when a
        :class:`~repro.policyzoo.governor.MigrationGovernor` is active.
        """
        return True

    def _promotion_stall_ns(self, page: int) -> float:
        """Extra fault latency the migration governor charges a
        Tier-2->Tier-1 promotion (0.0 = unthrottled, the base default)."""
        return 0.0

    def _select_tier2_victim(self) -> int:
        """Nominate the Tier-2 eviction victim (FIFO/clock order hook)."""
        return self._t2_order.select_victim()

    def _evict_from_tier2(self) -> float:
        """Make room in Tier-2 (FIFO, or clock under GMT-TierOrder)."""
        victim = self._select_tier2_victim()
        if self._tier_counts is not None:
            self._tier_counts.left(2, victim)
        vstate = self.page_table.lookup(victim)
        vstate.location = PageLocation.TIER3
        self.stats.t2_evictions += 1
        obs = self._obs
        if obs is not None:
            obs.span("t2-evict", "tier2",
                     self.config.platform.tier2_eviction_ns, page=victim)
        if self._flight is not None:
            self._flight.emit(
                LifecycleKind.T2_EVICT, victim, self.stats.coalesced_accesses,
                "T2", "T3", "tier2-capacity", dirty=vstate.dirty,
                latency_ns=self.config.platform.tier2_eviction_ns,
            )
        # Running the Tier-2 replacement mechanism is itself GPU work over
        # host-resident metadata (section 2.1.1's third drawback).
        writeback_ns = self._writeback_if_dirty(vstate)
        if writeback_ns == 0.0:
            self.stats.t2_clean_evictions += 1
        return self.config.platform.tier2_eviction_ns + writeback_ns

    def _bypass_to_tier3(
        self, state: PageState, cause: str, predicted: str | None
    ) -> float:
        """Evict without a Tier-2 copy: discard clean, write back dirty;
        ``cause`` and ``predicted`` are the decision's, for its lifecycle
        event."""
        state.location = PageLocation.TIER3
        if self._flight is not None:
            self._flight.emit(
                LifecycleKind.BYPASS, state.page, self.stats.coalesced_accesses,
                "T1", "T3", cause, predicted=predicted,
                dirty=state.dirty,
                detail="writeback-dirty" if state.dirty else "discard-clean",
            )
        ns = self._writeback_if_dirty(state)
        if ns == 0.0:
            self.stats.clean_discards += 1
        return ns

    def _writeback_if_dirty(self, state: PageState) -> float:
        if not state.dirty:
            return 0.0
        self.ssd.record_write(self.config.page_size)
        self.stats.ssd_page_writes += 1
        state.writeback()
        obs = self._obs
        if obs is not None:
            obs.span("writeback", "ssd",
                     self.config.platform.ssd_write_latency_ns, page=state.page)
        if self._flight is not None:
            self._flight.emit(
                LifecycleKind.WRITEBACK, state.page, self.stats.coalesced_accesses,
                "-", "T3", "dirty-writeback",
                latency_ns=self.config.platform.ssd_write_latency_ns,
            )
        return self.config.platform.ssd_write_latency_ns

    # ------------------------------------------------------------------
    def result(self) -> RunResult:
        """Snapshot the run outcome (can be called repeatedly)."""
        breakdown = self.cost.breakdown(
            pcie_busy_ns=self.pcie.busy_time_ns(),
            ssd_busy_ns=self.ssd.busy_time_ns(),
        )
        if self._queueing is not None:
            breakdown = replace(breakdown, measured_ns=self._queueing.makespan_ns)
        return RunResult(
            runtime_name=self.name,
            stats=self.stats,
            breakdown=breakdown,
            page_size=self.config.page_size,
        )

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structural invariants: each tier's eviction structure within
        the configured frames, no page in both, page-table locations
        against that membership, and the hit map against the page
        table; used by audits, tests and property checks."""
        if len(self.t1_clock) > self.config.tier1_frames:
            raise SimulationError("Tier-1 over capacity")
        if len(self._t2_order) > self.config.tier2_frames:
            raise SimulationError("Tier-2 over capacity")
        t1_pages = set(self.t1_clock.pages())
        t2_pages = set(self._t2_order.pages())
        if t1_pages & t2_pages:
            raise SimulationError(
                f"pages duplicated across tiers: {sorted(t1_pages & t2_pages)[:5]}"
            )
        for page in t1_pages | t2_pages:
            if self.page_table.peek(page) is None:
                raise SimulationError(
                    f"page {page} resident in a tier but unknown to the page table"
                )
        for state in self.page_table:
            in_t1 = state.page in t1_pages
            in_t2 = state.page in t2_pages
            expected = (
                PageLocation.TIER1
                if in_t1
                else PageLocation.TIER2
                if in_t2
                else PageLocation.TIER3
            )
            if state.location is not expected:
                raise SimulationError(
                    f"page {state.page}: location {state.location} but "
                    f"membership says {expected}"
                )
        self._check_hit_map()

    def _check_hit_map(self) -> None:
        """The hit map's set bits are exactly the pages the page table
        holds in Tier-1 and not as pending prefetches.  A bit set for
        any other page would retire a miss as a hit."""
        hits = [
            state.page
            for state in self.page_table
            if state.location is PageLocation.TIER1 and not state.prefetched
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
