"""Batched replay: byte-identity with the per-warp reference.

The contract under test (docs/performance.md): ``GMTRuntime.run``, which
retires Tier-1 hit runs in batches, is a pure speed choice — every
counter, the elapsed time, the confusion matrix, and the final
page-table state must match the per-warp reference
(``replay_per_warp``) bit for bit, on any trace, under any policy and
any Tier-1 structure, and the hit map must agree with the page table
after every replay.  The property tests drive randomized warp streams
through both replays; the unit tests pin the one-engine surface, the
shared scalar structures, the float-accumulation identity, in-run audits
on the batch path, the scalar bursts between short hit runs, the
hit-map desync injection, and the dense-page-id capacity guard.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GMTConfig
from repro.core.runtime import _SCALAR_STRIDE, GMTRuntime
from repro.core.vector import (
    _STREAM_CHUNK_WARPS,
    HitMap,
    _iter_trace_chunks,
    clear_trace_cache,
    materialize_trace,
)
from repro.errors import ConfigError, SimulationError
from repro.experiments.harness import (
    RUNTIME_KINDS,
    RunOptions,
    build_runtime,
    default_config,
)
from repro.mem.clock_replacement import ClockReplacement
from repro.mem.page import PageState
from repro.obs import Telemetry
from repro.policyzoo.registry import EVICTION_POLICY_NAMES, ZOO_POLICY_NAMES
from repro.sim.cost import sequential_float_sum
from repro.sim.gpu import WarpAccess, coalesce
from tests.conftest import record_batches

N_PAGES = 48  # footprint; tier1=8 frames forces heavy eviction traffic


def small_config(**overrides):
    return GMTConfig(tier1_frames=8, tier2_frames=16, **overrides)


def make_trace(warps):
    """[(pages_tuple, write), ...] -> re-iterable WarpAccess list."""
    return [WarpAccess(pages=tuple(pages), write=write) for pages, write in warps]


#: 3,000 two-lane warps over 6 pages: after the cold misses every access
#: hits Tier-1, so a replay that batches retires most of it in bulk.
HIT_TRACE = make_trace([((i % 6, (i + 1) % 6), i % 5 == 0) for i in range(3000)])


def run_pair(config, trace):
    """The per-warp reference and the batched replay of ``trace``."""
    reference = GMTRuntime(config)
    batched = GMTRuntime(config)
    return (
        reference,
        reference.replay_per_warp(trace),
        batched,
        batched.run(trace),
    )


def assert_results_identical(r_s, r_v):
    for counter in type(r_s.stats).counter_names():
        lhs = getattr(r_s.stats, counter)
        rhs = getattr(r_v.stats, counter)
        assert lhs == rhs, f"{counter}: per-warp={lhs} batched={rhs}"
    assert r_s.elapsed_ns == r_v.elapsed_ns
    assert r_s.stats.confusion == r_v.stats.confusion


def page_table_snapshot(runtime, n_pages):
    rows = []
    for page in range(n_pages):
        state = runtime.page_table.peek(page)
        if state is None:
            rows.append(None)
            continue
        rows.append(
            (
                state.location,
                state.dirty,
                state.prefetched,
                state.last_access_ts,
                state.last_eviction_ts,
            )
        )
    return rows


def assert_replays_agree(config, trace):
    reference, r_s, batched, r_v = run_pair(config, trace)
    assert_results_identical(r_s, r_v)
    assert page_table_snapshot(reference, N_PAGES) == page_table_snapshot(
        batched, N_PAGES
    )
    # The hit map must equal {Tier-1 and not a pending prefetch}, on
    # the per-warp path's writes as on the batched path's.
    reference.check_invariants()
    batched.check_invariants()


def audited_run(config, trace, every, per_warp=False):
    """Replay with periodic audits, batched or (``per_warp``) through the
    reference; returns (runtime, result, audits, batches): the counters
    each audit saw and the hit runs retired in bulk."""
    runtime = GMTRuntime(config)
    runtime.enable_periodic_checks(every=every)
    audits = []
    check = runtime._periodic_check

    def recording_check():
        stats = runtime.stats
        audits.append(
            (stats.coalesced_accesses, stats.warp_instructions, stats.t1_hits)
        )
        check()

    runtime._periodic_check = recording_check
    batches = record_batches(runtime)
    replay = runtime.replay_per_warp if per_warp else runtime.run
    result = replay(trace)
    return runtime, result, audits, batches


# ----------------------------------------------------------------------
# property: random traces, both replays, identical everything
# ----------------------------------------------------------------------
warp_st = st.tuples(
    st.lists(st.integers(0, N_PAGES - 1), min_size=1, max_size=4),
    st.booleans(),
)
trace_st = st.lists(warp_st, min_size=0, max_size=150)


class TestEngineParityProperties:
    @settings(max_examples=25, deadline=None)
    @given(warps=trace_st, policy=st.sampled_from(["reuse", "tier-order", "random"]))
    def test_random_traces_are_byte_identical(self, warps, policy):
        config = small_config(policy=policy)
        assert_replays_agree(config, make_trace(warps))

    @settings(max_examples=15, deadline=None)
    @given(warps=trace_st, degree=st.sampled_from([1, 4]))
    def test_prefetch_traces_are_byte_identical(self, warps, degree):
        config = small_config(prefetch_degree=degree)
        assert_replays_agree(config, make_trace(warps))

    @settings(max_examples=15, deadline=None)
    @given(
        warps=trace_st,
        policy=st.sampled_from(["reuse", "tier-order", "random"]),
        every=st.sampled_from([1, 3, 7]),
        degree=st.sampled_from([0, 2]),
    )
    def test_audited_traces_are_byte_identical(self, warps, policy, every, degree):
        # In-run audits stay on the batch loop: same counters, and every
        # audit fires at the same position over the same state.  A
        # 12-page hot set against 8 Tier-1 frames mixes hit runs with
        # misses.
        config = small_config(policy=policy, prefetch_degree=degree)
        trace = make_trace(
            [([p % 12 for p in pages], write) for pages, write in warps]
        )
        _, r_s, audits_s, _ = audited_run(config, trace, every, per_warp=True)
        _, r_v, audits_v, _ = audited_run(config, trace, every)
        assert_results_identical(r_s, r_v)
        assert audits_s == audits_v

    @settings(max_examples=20, deadline=None)
    @given(
        warps=trace_st,
        tier1=st.sampled_from(ZOO_POLICY_NAMES),
        policy=st.sampled_from(["tier-order", "random"]),
        degree=st.sampled_from([0, 2]),
        hit_heavy=st.booleans(),
    )
    def test_zoo_tier1_policies_batch_and_stay_identical(
        self, warps, tier1, policy, degree, hit_heavy
    ):
        # A zoo Tier-1 structure counts, ages or reorders on every touch,
        # so the batch loop touches it once per access, in trace order.
        # Mixed: a 12-page hot set against 8 frames.  Hit-heavy: 16
        # pages against 64 frames.  The leading pair of page-0 warps
        # makes the second one a hit the loop must retire as a batch.
        if hit_heavy:
            config = GMTConfig(tier1_frames=64, tier2_frames=64)
            fold = 16
        else:
            config = small_config()
            fold = 12
        config = GMTConfig(
            tier1_frames=config.tier1_frames,
            tier2_frames=config.tier2_frames,
            tier1_eviction=tier1,
            policy=policy,
            prefetch_degree=degree,
        )
        trace = make_trace(
            [((0,), False), ((0,), True)]
            + [([p % fold for p in pages], write) for pages, write in warps]
        )
        reference = GMTRuntime(config)
        r_s = reference.replay_per_warp(trace)
        batched = GMTRuntime(config)
        batches = record_batches(batched)
        r_v = batched.run(trace)
        assert_results_identical(r_s, r_v)
        assert page_table_snapshot(reference, N_PAGES) == page_table_snapshot(
            batched, N_PAGES
        )
        batched.check_invariants()
        assert batches, "no hit run was retired as a batch"
        # The structures agree beyond their residents: the same victims
        # come out in the same order.
        victims = min(3, len(reference.t1_clock))
        assert [reference.t1_clock.select_victim() for _ in range(victims)] == [
            batched.t1_clock.select_victim() for _ in range(victims)
        ]

    @settings(max_examples=10, deadline=None)
    @given(warps=trace_st)
    def test_hit_heavy_traces_are_byte_identical(self, warps):
        # Footprint fits Tier-1: after compulsory misses everything is a
        # hit, exercising the batch-retire path almost exclusively.
        config = GMTConfig(tier1_frames=64, tier2_frames=64)
        trace = [
            WarpAccess(pages=tuple(p % 16 for p in pages), write=write)
            for pages, write in [(w[0], w[1]) for w in warps]
        ]
        assert_replays_agree(config, trace)


# ----------------------------------------------------------------------
# property: sequential float accumulation identity
# ----------------------------------------------------------------------
class TestSequentialFloatSum:
    @settings(max_examples=100, deadline=None)
    @given(
        base=st.floats(0, 1e12, allow_nan=False),
        step=st.floats(0, 1e6, allow_nan=False),
        count=st.integers(0, 500),
    )
    def test_matches_python_loop_bit_for_bit(self, base, step, count):
        expected = base
        for _ in range(count):
            expected += step
        assert sequential_float_sum(base, step, count) == expected


# ----------------------------------------------------------------------
# one engine: no selection surface, every runtime batches
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_engine_names(self):
        # The labels kept for callers outside the package: every runtime
        # batches its hit runs, and the open loop issues warps one at a
        # time.  There is no "auto".
        from repro.serve import OpenLoopServer, TenantServer, build_tenants

        config = small_config()
        streams = build_tenants(["bfs", "hotspot"], config)
        server = TenantServer(config, streams)
        assert GMTRuntime(config).engine_resolution()[0] == "vector"
        assert server.runtime.engine_resolution()[0] == "vector"
        assert OpenLoopServer(config, streams).engine_resolution()[0] == "scalar"

    def test_bad_engine_rejected(self):
        # The engine is not a setting any more: nothing takes one.
        with pytest.raises(TypeError):
            small_config(engine="vector")
        with pytest.raises(TypeError):
            RunOptions(engine="vector")
        with pytest.raises(TypeError):
            build_runtime("reuse", small_config(), engine="vector")

    def test_every_kind_and_tier1_policy_batches(self):
        # No fallback trigger is left: every runtime kind batches its hit
        # runs under every Tier-1 structure, audited and instrumented
        # included, and so does the serving runtime's inherited run().
        from repro.serve import build_tenants
        from repro.serve.runtime import TenantAwareRuntime

        for kind in RUNTIME_KINDS:
            for tier1 in EVICTION_POLICY_NAMES:
                # GMT-Reuse batches once its sampling window closes.
                config = small_config(
                    tier1_eviction=tier1, sample_target=200, sample_batch=50
                )
                runtime = build_runtime(kind, config)
                batches = record_batches(runtime)
                runtime.run(HIT_TRACE)
                assert sum(batches) > len(HIT_TRACE), (kind, tier1)
        runtime = build_runtime("tier-order", small_config())
        runtime.enable_periodic_checks(every=50)
        runtime.attach_telemetry(Telemetry(window=7, lifecycle=True))
        batches = record_batches(runtime)
        runtime.run(HIT_TRACE)
        assert sum(batches) > len(HIT_TRACE)
        config = small_config(policy="tier-order")
        streams = build_tenants(["bfs", "keyvalue"], config, oversubscription=0.5)
        served = TenantAwareRuntime(config, streams)
        served.attach_telemetry(Telemetry(window=7))
        batches = record_batches(served)
        served.run(iter(streams[1]))
        assert batches
        assert all(type(state) is PageState for state in served.page_table)

    def test_harness_build_runtime_routes_engine(self):
        # build_runtime(kind, config) builds the kind's own class, not a
        # per-engine variant, and that class batches.
        from repro.baselines.bam import BamRuntime
        from repro.baselines.dragon import DragonRuntime
        from repro.baselines.hmm import HmmRuntime

        config = default_config(scale=8192)
        classes = {"bam": BamRuntime, "hmm": HmmRuntime, "dragon": DragonRuntime}
        for kind in RUNTIME_KINDS:
            runtime = build_runtime(kind, config)
            assert type(runtime) is classes.get(kind, GMTRuntime)
            batches = record_batches(runtime)
            runtime.run(HIT_TRACE)
            assert sum(batches) > len(HIT_TRACE), kind

    def test_vector_runtime_keeps_the_scalar_structures(self):
        # One page table, one row type and one clock: every runtime
        # kind's rows are plain PageState rows (the runtime writes the
        # hit map itself) and its Tier-1 clock is ClockReplacement.
        trace = make_trace([((p % 12,), p % 3 == 0) for p in range(100)])
        for kind in RUNTIME_KINDS:
            runtime = build_runtime(kind, small_config())
            runtime.run(trace)
            assert type(runtime.t1_clock) is ClockReplacement, kind
            assert len(runtime.page_table) == 12, kind
            assert all(type(state) is PageState for state in runtime.page_table)
            resident = sorted(runtime.t1_clock.pages())
            assert np.flatnonzero(runtime._hit_map.bits).tolist() == resident


# ----------------------------------------------------------------------
# in-run audits, scalar bursts, trace cache, capacity guard
# ----------------------------------------------------------------------
class TestFallbacksAndGuards:
    def test_audited_vector_runtime_stays_vector_and_matches(self):
        # A hot loop over 6 pages (Tier-1 holds 8) with a cold page every
        # 40 accesses: long hit runs that the audit cuts must split.
        trace = make_trace(
            [((8 + p // 40,) if p % 40 == 39 else (p % 6, (p + 1) % 6),
              p % 3 == 0) for p in range(400)]
        )
        config = small_config(policy="tier-order")
        _, r_s, audits_s, _ = audited_run(config, trace, 7, per_warp=True)
        batched, r_v, audits_v, batches = audited_run(config, trace, 7)
        assert batched.engine_resolution()[0] == "vector"
        assert batches and max(batches) <= 7
        assert_results_identical(r_s, r_v)
        assert audits_v == audits_s
        assert [a[0] for a in audits_s] == list(
            range(7, r_s.stats.coalesced_accesses, 7)
        )

    @pytest.mark.parametrize("every", [5, 11, 500])
    def test_hit_batches_stop_before_audits(self, every):
        # 3,000 two-lane warps over 6 pages: after the cold misses every
        # access hits, so hit batches run into every audit.
        trace = make_trace(
            [((p % 6, (p + 1) % 6), p % 5 == 0) for p in range(3000)]
        )
        config = small_config(policy="tier-order")
        _, r_s, audits_s, _ = audited_run(config, trace, every, per_warp=True)
        _, r_v, audits_v, batches = audited_run(config, trace, every)
        assert sum(batches) > 4000  # of 6,000 accesses
        assert_results_identical(r_s, r_v)
        assert audits_v == audits_s
        assert [a[0] for a in audits_s] == list(range(every, 6000, every))

    def test_short_hit_runs_burst_scalar(self):
        # One Tier-1 hit between compulsory misses, under a policy whose
        # hits batch: probing every run would pay a probe and a batch
        # per hit.  Probes that end at a miss count toward the scalar
        # burst whether or not they retired a hit first.
        config = small_config(policy="tier-order")
        trace = make_trace(
            [w for k in range(2_000) for w in (((0,), False), ((100 + k,), False))]
        )
        reference = GMTRuntime(config)
        r_s = reference.replay_per_warp(trace)
        batched = GMTRuntime(config)
        batches = record_batches(batched)
        r_v = batched.run(trace)
        assert_results_identical(r_s, r_v)
        accesses = r_v.stats.coalesced_accesses
        assert r_v.stats.t1_hits > accesses // 4
        assert 0 < len(batches) <= 8 * accesses // _SCALAR_STRIDE

    def test_trace_cache_materializes_once(self):
        from repro.workloads import make_workload

        clear_trace_cache()
        workload = make_workload("hotspot", default_config(scale=8192))
        arrays = materialize_trace(workload)
        assert materialize_trace(workload) is arrays
        assert arrays.n_warps > 0
        assert arrays.pages.dtype == np.int64
        clear_trace_cache()

    def test_dense_capacity_guard(self):
        # A page id past the dense cap raises on both replays: run()
        # sizes the map for each chunk, the per-warp reference grows it
        # at the page's demand fill.
        with pytest.raises(SimulationError):
            HitMap().ensure(HitMap.MAX_PAGES + 1)
        trace = make_trace([((0,), False), ((HitMap.MAX_PAGES,), False)])
        for replay in ("run", "replay_per_warp"):
            runtime = GMTRuntime(small_config())
            with pytest.raises(SimulationError, match="dense page-id capacity"):
                getattr(runtime, replay)(trace)

    @staticmethod
    def assert_hit_map_desync_caught(report, kind):
        assert not report.ok
        assert f"hit-map bit set for {kind}" in report.injected
        assert [
            (violation.identity, "hit map bit True for page" in violation.message)
            for _, violation in report.violations
        ] == [("structural", True)]

    def test_vector_desync_injection_is_detected(self):
        from repro.check.differential import run_conformance

        report = run_conformance(
            "hotspot",
            scale=8192,
            inject="vector-desync",
            metamorphic=False,
            serve=False,
        )
        self.assert_hit_map_desync_caught(report, "Tier-2 page")

    def test_vector_desync_of_a_pending_prefetch_is_detected(self):
        # pagerank leaves prefetched pages in Tier-1 that were never
        # demand-touched; a set bit would skip their prefetch-hit billing.
        from repro.check.differential import run_conformance

        report = run_conformance(
            "pagerank",
            scale=8192,
            prefetch_degree=2,
            inject="vector-desync",
            metamorphic=False,
            serve=False,
        )
        self.assert_hit_map_desync_caught(report, "pending prefetch")

    def test_vector_desync_injection_needs_a_target(self):
        # BaM without prefetch has neither a Tier-2 page nor a pending
        # prefetch whose bit the injection could set.
        from repro.check.differential import run_conformance

        with pytest.raises(ConfigError):
            run_conformance(
                "hotspot",
                scale=8192,
                runtimes=("bam",),
                inject="vector-desync",
                metamorphic=False,
                serve=False,
            )


class TestTraceFlattening:
    """``_iter_trace_chunks`` packs warps into columns in bounded chunks,
    flattens each with one vectorized coalesce, and yields exactly what a
    per-access loop over the warps gives."""

    #: Coalesced accesses in the fixture trace: several stream chunks.
    ACCESSES = 3 * (1 << 16) + 1000

    @pytest.fixture(scope="class")
    def warps(self):
        # Up to 32 lanes over a small page range: warps span many pages
        # and repeat some, so coalescing matters, and the trace spans
        # several _STREAM_CHUNK_WARPS chunks.
        rng = random.Random(7)
        warps, accesses = [], 0
        while accesses < self.ACCESSES:
            lanes = tuple(rng.randrange(4096) for _ in range(rng.randint(1, 32)))
            warps.append(WarpAccess(pages=lanes, write=rng.random() < 0.3))
            accesses += len(set(lanes))
        return warps

    @staticmethod
    def naive(warps):
        pages, writes, counts = [], [], []
        for count, warp in enumerate(warps, start=1):
            for page in coalesce(warp):
                pages.append(page)
                writes.append(warp.write)
                counts.append(count)
        return pages, writes, counts

    @staticmethod
    def flat(chunk):
        pages, writes, counts = chunk.pages, chunk.writes, chunk.warps
        assert (pages.dtype, writes.dtype, counts.dtype) == (np.int64, bool, np.int64)
        return chunk.n_warps, (pages.tolist(), writes.tolist(), counts.tolist())

    def test_whole_trace_as_one_chunk(self, warps):
        (chunk,) = _iter_trace_chunks(warps)
        n_warps, arrays = self.flat(chunk)
        assert n_warps == len(warps)
        assert len(arrays[0]) >= self.ACCESSES
        assert arrays == self.naive(warps)

    def test_bounded_chunks(self, warps):
        chunks = list(_iter_trace_chunks(iter(warps), _STREAM_CHUNK_WARPS))
        assert len(chunks) == -(-len(warps) // _STREAM_CHUNK_WARPS)
        for index, chunk in enumerate(chunks):
            part = warps[index * _STREAM_CHUNK_WARPS : (index + 1) * _STREAM_CHUNK_WARPS]
            n_warps, arrays = self.flat(chunk)
            assert n_warps == len(part)
            assert arrays == self.naive(part)
        assert len(chunks) > 1

    def test_empty_trace(self):
        (chunk,) = _iter_trace_chunks([])
        assert self.flat(chunk) == (0, ([], [], []))
        assert list(_iter_trace_chunks([], _STREAM_CHUNK_WARPS)) == []


class TestHitMapSizing:
    """The hit map is sized where the page space is known (``run()`` per
    chunk, the serving runtime at construction), so a demand fill grows
    it only for a direct ``access()``/``access_warp()`` caller past it."""

    @staticmethod
    def count_ensures(monkeypatch):
        calls = []
        ensure = HitMap.ensure

        def counting(self, n):
            calls.append(n)
            return ensure(self, n)

        monkeypatch.setattr(HitMap, "ensure", counting)
        return calls

    @pytest.mark.parametrize("prefetch_degree", [0, 2])
    def test_served_runs_never_grow_the_map(self, monkeypatch, prefetch_degree):
        import dataclasses

        from repro.serve import OpenLoopConfig, OpenLoopServer, TenantPopulation
        from repro.serve.server import TenantServer, build_tenants

        config = dataclasses.replace(default_config(8192), prefetch_degree=prefetch_degree)
        closed = TenantServer(config, build_tenants(["bfs", "hotspot", "srad"], config))
        fleet = OpenLoopServer(
            config, TenantPopulation(64, seed=3), OpenLoopConfig(requests=256, seed=3)
        )
        calls = self.count_ensures(monkeypatch)
        closed.run(solo_baselines=False)
        fleet.run()
        assert calls == []
        assert closed.runtime.stats.t1_misses and fleet.runtime.stats.t1_misses

    def test_direct_access_past_the_initial_map_grows_it(self):
        runtime = GMTRuntime(small_config(prefetch_degree=2))
        initial = runtime._hit_map.bits.size
        page = initial + 5000
        runtime.access_warp(WarpAccess(pages=(page, 3)))
        runtime.access_warp(WarpAccess(pages=(page,), write=True))
        assert runtime._hit_map.bits.size >= page + 3 > initial
        assert runtime._hit_map.bits[page]
        assert (runtime.stats.t1_misses, runtime.stats.t1_hits) == (2, 1)
        runtime.check_invariants()
