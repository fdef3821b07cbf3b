"""Vector replay engine: byte-identity with the scalar runtime.

The contract under test (docs/performance.md): ``engine="vector"`` is a
pure speed choice — every counter, the elapsed time, the confusion
matrix, and the final page-table state must match the scalar runtime
bit for bit, on any trace, under any policy, and the vector runtime's
hit map must agree with its page table after every replay.  The
property tests drive randomized warp streams through both engines; the
unit tests pin the factory surface, the shared scalar structures, the
float-accumulation identity, in-run audits on the batch path, the
hit-map desync injection, and the dense-page-id capacity guard.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ENGINE_NAMES, GMTConfig, make_runtime, resolve_engine_reason
from repro.core.runtime import GMTRuntime
from repro.core.vector import (
    _FLATTEN_BLOCK,
    _STREAM_CHUNK_WARPS,
    HitMap,
    VectorEngineMixin,
    VectorReplayEngine,
    _iter_trace_chunks,
    clear_trace_cache,
    materialize_trace,
    vector_variant,
)
from repro.errors import ConfigError, SimulationError
from repro.experiments.harness import build_runtime, default_config
from repro.mem.clock_replacement import ClockReplacement
from repro.mem.page import PageState
from repro.obs import Telemetry
from repro.sim.cost import sequential_float_sum
from repro.sim.gpu import WarpAccess, coalesce

N_PAGES = 48  # footprint; tier1=8 frames forces heavy eviction traffic


def small_config(**overrides):
    return GMTConfig(tier1_frames=8, tier2_frames=16, **overrides)


def make_trace(warps):
    """[(pages_tuple, write), ...] -> re-iterable WarpAccess list."""
    return [WarpAccess(pages=tuple(pages), write=write) for pages, write in warps]


def run_pair(config, trace):
    scalar = make_runtime(config, engine="scalar")
    vector = make_runtime(config, engine="vector")
    return scalar, scalar.run(trace), vector, vector.run(trace)


def assert_results_identical(r_s, r_v):
    for counter in type(r_s.stats).counter_names():
        lhs = getattr(r_s.stats, counter)
        rhs = getattr(r_v.stats, counter)
        assert lhs == rhs, f"{counter}: scalar={lhs} vector={rhs}"
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


def assert_engines_agree(config, trace):
    scalar, r_s, vector, r_v = run_pair(config, trace)
    assert_results_identical(r_s, r_v)
    assert page_table_snapshot(scalar, N_PAGES) == page_table_snapshot(
        vector, N_PAGES
    )
    # The hit map must equal {Tier-1 and not a pending prefetch}.
    vector.check_invariants()


def audited_run(config, trace, engine, every):
    """Replay with periodic audits; returns (runtime, result, audits,
    batches): the counters each audit saw and the hit runs retired in
    bulk."""
    runtime = make_runtime(config, engine=engine)
    runtime.enable_periodic_checks(every=every)
    audits, batches = [], []
    check = runtime._periodic_check

    def recording_check():
        stats = runtime.stats
        audits.append(
            (stats.coalesced_accesses, stats.warp_instructions, stats.t1_hits)
        )
        check()

    runtime._periodic_check = recording_check
    if engine == "vector":
        batch_hits = runtime._batch_hits

        def recording_batch(chunk, writes):
            batches.append(len(chunk))
            batch_hits(chunk, writes)

        runtime._batch_hits = recording_batch
    result = runtime.run(trace)
    return runtime, result, audits, batches


# ----------------------------------------------------------------------
# property: random traces, both engines, identical everything
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
        assert_engines_agree(config, make_trace(warps))

    @settings(max_examples=15, deadline=None)
    @given(warps=trace_st, degree=st.sampled_from([1, 4]))
    def test_prefetch_traces_are_byte_identical(self, warps, degree):
        config = small_config(prefetch_degree=degree)
        assert_engines_agree(config, make_trace(warps))

    @settings(max_examples=15, deadline=None)
    @given(
        warps=trace_st,
        policy=st.sampled_from(["reuse", "tier-order", "random"]),
        every=st.sampled_from([1, 3, 7]),
        degree=st.sampled_from([0, 2]),
    )
    def test_audited_traces_are_byte_identical(self, warps, policy, every, degree):
        # In-run audits stay on the vector engine: same counters, and
        # every audit fires at the same position over the same state.
        # A 12-page hot set against 8 Tier-1 frames mixes hit runs with
        # misses.
        config = small_config(policy=policy, prefetch_degree=degree)
        trace = make_trace(
            [([p % 12 for p in pages], write) for pages, write in warps]
        )
        _, r_s, audits_s, _ = audited_run(config, trace, "scalar", every)
        _, r_v, audits_v, _ = audited_run(config, trace, "vector", every)
        assert_results_identical(r_s, r_v)
        assert audits_s == audits_v

    @settings(max_examples=10, deadline=None)
    @given(warps=trace_st)
    def test_zoo_policy_falls_back_but_stays_identical(self, warps):
        # No vector twin for s3fifo: the vector runtime must silently
        # replay scalar and still match.
        config = small_config(tier1_eviction="s3fifo")
        assert_engines_agree(config, make_trace(warps))

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
        assert_engines_agree(config, trace)


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
# factory / engine-selection surface
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_engine_names(self):
        assert set(ENGINE_NAMES) == {"scalar", "vector", "auto"}

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigError):
            resolve_engine_reason("simd", small_config())
        with pytest.raises(ConfigError):
            small_config(engine="simd")

    def test_explicit_engine_wins(self):
        config = small_config(engine="scalar")
        assert resolve_engine_reason("vector", config)[0] == "vector"
        assert resolve_engine_reason(None, config)[0] == "scalar"

    def test_auto_picks_vector_when_uninstrumented(self):
        assert resolve_engine_reason("auto", small_config())[0] == "vector"

    def test_auto_demotes_only_on_zoo_policies(self):
        zoo = small_config(tier1_eviction="mglru")
        assert resolve_engine_reason("auto", zoo)[0] == "scalar"
        # Audits, telemetry and the full flight recorder keep the vector
        # engine.
        runtime = make_runtime(small_config(), engine="auto")
        runtime.enable_periodic_checks(every=50)
        runtime.attach_telemetry(Telemetry(window=7, lifecycle=True))
        assert runtime.engine_resolution()[0] == "vector"

    def test_make_runtime_engine_classes(self):
        scalar = make_runtime(small_config(), engine="scalar")
        vector = make_runtime(small_config(), engine="vector")
        assert type(scalar) is GMTRuntime
        assert scalar.engine_name == "scalar"
        assert isinstance(vector, VectorReplayEngine)
        assert vector.engine_name == "vector"

    def test_vector_runtime_keeps_the_scalar_structures(self):
        # One page table and one clock: the vector engine's rows are the
        # scalar PageState rows and its Tier-1 clock is ClockReplacement.
        vector = make_runtime(small_config(), engine="vector")
        vector.run(make_trace([((p % 12,), p % 3 == 0) for p in range(100)]))
        assert type(vector.t1_clock) is ClockReplacement
        assert len(vector.page_table) == 12
        assert all(isinstance(state, PageState) for state in vector.page_table)
        resident = sorted(vector.tier1)
        assert np.flatnonzero(vector._hit_map.bits).tolist() == resident

    def test_vector_variant_is_memoized(self):
        from repro.baselines.bam import BamRuntime

        assert vector_variant(GMTRuntime) is VectorReplayEngine
        assert vector_variant(VectorReplayEngine) is VectorReplayEngine
        variant = vector_variant(BamRuntime)
        assert variant is vector_variant(BamRuntime)
        assert issubclass(variant, VectorEngineMixin)
        assert issubclass(variant, BamRuntime)

    def test_harness_build_runtime_routes_engine(self):
        config = default_config(scale=8192)
        runtime = build_runtime("reuse", config, engine="vector")
        assert runtime.engine_name == "vector"


# ----------------------------------------------------------------------
# in-run audits, trace cache, capacity guard
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
        _, r_s, audits_s, _ = audited_run(config, trace, "scalar", every=7)
        vector, r_v, audits_v, batches = audited_run(config, trace, "vector", every=7)
        assert vector.engine_resolution()[0] == "vector"
        assert batches and max(batches) <= 7
        assert_results_identical(r_s, r_v)
        assert audits_v == audits_s
        assert [a[0] for a in audits_s] == list(
            range(7, r_s.stats.coalesced_accesses, 7)
        )

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
        hit_map = HitMap()
        with pytest.raises(SimulationError):
            hit_map.ensure(HitMap.MAX_PAGES + 1)
        with pytest.raises(SimulationError):
            hit_map.row(HitMap.MAX_PAGES)

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
            engine="vector",
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
            engine="vector",
            metamorphic=False,
            serve=False,
        )
        self.assert_hit_map_desync_caught(report, "pending prefetch")

    def test_vector_desync_injection_needs_vector_engine(self):
        from repro.check.differential import run_conformance

        with pytest.raises(ConfigError):
            run_conformance(
                "hotspot",
                scale=8192,
                inject="vector-desync",
                engine="scalar",
                metamorphic=False,
                serve=False,
            )


class TestTraceFlattening:
    """``_iter_trace_chunks`` builds the flat stream in bounded blocks and
    still yields exactly what a per-access loop over the warps gives."""

    @pytest.fixture(scope="class")
    def warps(self):
        # Up to 32 lanes over a small page range: warps span many pages
        # and repeat some, so coalescing matters, and each
        # _STREAM_CHUNK_WARPS chunk holds more than one block.
        rng = random.Random(7)
        warps, accesses = [], 0
        while accesses < 3 * _FLATTEN_BLOCK + 1000:
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
        n_warps, pages, writes, counts = chunk
        assert (pages.dtype, writes.dtype, counts.dtype) == (np.int64, bool, np.int64)
        return n_warps, (pages.tolist(), writes.tolist(), counts.tolist())

    def test_whole_trace_as_one_chunk(self, warps):
        (chunk,) = _iter_trace_chunks(warps)
        n_warps, arrays = self.flat(chunk)
        assert n_warps == len(warps)
        assert len(arrays[0]) > 3 * _FLATTEN_BLOCK
        assert arrays == self.naive(warps)

    def test_bounded_chunks(self, warps):
        chunks = list(_iter_trace_chunks(iter(warps), _STREAM_CHUNK_WARPS))
        assert len(chunks) == -(-len(warps) // _STREAM_CHUNK_WARPS)
        for index, chunk in enumerate(chunks):
            part = warps[index * _STREAM_CHUNK_WARPS : (index + 1) * _STREAM_CHUNK_WARPS]
            n_warps, arrays = self.flat(chunk)
            assert n_warps == len(part)
            assert arrays == self.naive(part)
        assert len(chunks[0][1]) > _FLATTEN_BLOCK

    def test_empty_trace(self):
        (chunk,) = _iter_trace_chunks([])
        assert self.flat(chunk) == (0, ([], [], []))
        assert list(_iter_trace_chunks([], _STREAM_CHUNK_WARPS)) == []
