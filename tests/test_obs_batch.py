"""Batch-aware telemetry: byte-identity of instrumented replays.

The contract under test (docs/observability.md): windowed snapshots,
latency-digest state, Perfetto counter tracks, anomaly findings and the
full and sampled lifecycle streams are byte-identical between the
per-warp reference replay and the batched ``run`` — on any trace, under
any policy, with batches deliberately straddling window boundaries
(small prime intervals).  The unit tests pin the batch observers' caps,
bulk digest observation, sampled-lifecycle admission, the reported
engine resolutions and the ``window-desync`` and lifecycle-corruption
self-tests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError
from repro.obs import Telemetry
from repro.obs.anomaly import AnomalyDetector
from repro.obs.batch import (
    AuditBatchObserver,
    BatchObserverChain,
    SampledLifecycleRecorder,
    WindowBatchObserver,
)
from repro.obs.digest import LatencyDigest
from repro.obs.export import counter_track_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshots import WindowedSnapshotter
from repro.prof import PhaseProfiler
from repro.sim.gpu import WarpAccess

N_PAGES = 48  # footprint; tier1=8 frames forces heavy eviction traffic


def small_config(**overrides):
    return GMTConfig(tier1_frames=8, tier2_frames=16, **overrides)


def make_trace(warps):
    return [WarpAccess(pages=tuple(pages), write=write) for pages, write in warps]


def instrumented_run(config, trace, per_warp, window, sample_rate=None,
                     full_lifecycle=False):
    """Replay ``trace`` with telemetry attached, through the per-warp
    reference or (``per_warp`` false) the batched ``run``."""
    runtime = GMTRuntime(config)
    telemetry = Telemetry(window=window, lifecycle_sample_rate=sample_rate)
    if full_lifecycle:
        telemetry.enable_lifecycle(capacity=None)
    runtime.attach_telemetry(telemetry)
    replay = runtime.replay_per_warp if per_warp else runtime.run
    return replay(trace), telemetry


def telemetry_surfaces(telemetry):
    """Every surface the parity contract covers, as comparable values."""
    windows = telemetry.windows()
    return {
        "windows": windows,
        "digest": telemetry.latency_digest.to_dict(),
        "counter-tracks": counter_track_events(0, windows),
        "anomalies": [str(a) for a in AnomalyDetector().scan(windows)],
    }


warp_lists = st.lists(
    st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=N_PAGES - 1),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


class TestEngineTelemetryParity:
    @settings(max_examples=20, deadline=None)
    @given(
        warps=warp_lists,
        policy=st.sampled_from(["tier-order", "random", "reuse"]),
        window=st.sampled_from([3, 7, 13]),  # primes: batches straddle cuts
        prefetch=st.sampled_from([0, 2]),
    )
    def test_all_surfaces_byte_identical(self, warps, policy, window, prefetch):
        trace = make_trace(warps)
        config = small_config(
            prefetch_degree=prefetch, footprint_pages=N_PAGES
        ).with_policy(policy)
        r_s, t_s = instrumented_run(config, trace, True, window)
        r_v, t_v = instrumented_run(config, trace, False, window)
        assert r_s.elapsed_ns == r_v.elapsed_ns
        for counter in type(r_s.stats).counter_names():
            assert getattr(r_s.stats, counter) == getattr(r_v.stats, counter), counter
        s_surfaces, v_surfaces = telemetry_surfaces(t_s), telemetry_surfaces(t_v)
        for surface in s_surfaces:
            assert s_surfaces[surface] == v_surfaces[surface], surface

    @settings(max_examples=10, deadline=None)
    @given(warps=warp_lists, window=st.sampled_from([5, 11]))
    def test_sampled_lifecycle_stream_engine_independent(self, warps, window):
        trace = make_trace(warps)
        config = small_config()
        _, t_s = instrumented_run(config, trace, True, window, sample_rate=0.5)
        _, t_v = instrumented_run(config, trace, False, window, sample_rate=0.5)
        assert list(t_s.lifecycle.events()) == list(t_v.lifecycle.events())

    @settings(max_examples=15, deadline=None)
    @given(
        warps=warp_lists,
        policy=st.sampled_from(["tier-order", "random", "reuse"]),
        window=st.sampled_from([5, 11]),
        prefetch=st.sampled_from([0, 2]),
    )
    def test_full_lifecycle_stream_engine_independent(
        self, warps, policy, window, prefetch
    ):
        # The unbounded, unsampled flight recorder rides the batch loop:
        # every event is emitted inside ``access``, so the streams match
        # event for event.
        trace = make_trace(warps)
        config = small_config(
            prefetch_degree=prefetch, footprint_pages=N_PAGES
        ).with_policy(policy)
        _, t_s = instrumented_run(config, trace, True, window,
                                  full_lifecycle=True)
        _, t_v = instrumented_run(config, trace, False, window,
                                  full_lifecycle=True)
        assert t_s.lifecycle.dropped == t_v.lifecycle.dropped == 0
        assert list(t_s.lifecycle.events()) == list(t_v.lifecycle.events())

    def test_vector_flushes_final_partial_window(self):
        # 25 coalesced accesses at interval 10: windows at 10 and 20 plus
        # the flushed tail at 25, identically under both replays.
        trace = make_trace([((i % N_PAGES,), False) for i in range(25)])
        _, t_s = instrumented_run(small_config(), trace, True, 10)
        _, t_v = instrumented_run(small_config(), trace, False, 10)
        assert [w["position"] for w in t_v.windows()] == [10, 20, 25]
        assert t_s.windows() == t_v.windows()


class TestBatchPrimitives:
    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
            max_size=200,
        )
    )
    def test_observe_many_matches_observe_loop(self, values):
        looped, bulk = LatencyDigest(), LatencyDigest()
        for value in values:
            looped.observe(value)
        bulk.observe_many(values)
        assert looped.to_dict() == bulk.to_dict()

    def test_add_batch_cuts_one_window_per_boundary_crossed(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", help="")
        snap = WindowedSnapshotter(registry, interval=10)
        counter.inc(5)
        cut = snap.add_batch(35)
        assert [w["position"] for w in cut] == [10, 20, 30]
        assert snap._last_position == 30
        assert snap.add_batch(39) == []  # below the next boundary: no cut

    def test_window_batch_observer_caps_before_boundary(self):
        snap = WindowedSnapshotter(MetricsRegistry(), interval=10)
        observer = WindowBatchObserver(snap)
        # From position 0 a batch may retire 9 accesses; the 10th is the
        # boundary access and must replay scalar.
        assert observer.limit(0) == 9
        assert observer.limit(9) == 0
        observer.on_hits(9, 9)
        assert snap.windows() == []  # capped batches never cut
        snap.snapshot(10)
        assert observer.limit(10) == 9  # clock restarts past the boundary

    def test_audit_batch_observer_stops_before_audited_access(self):
        # GMTRuntime.access audits before the access at every non-zero
        # multiple of the interval; batches must stop short of it.
        observer = AuditBatchObserver(10)
        assert observer.limit(0) == 10
        assert observer.limit(3) == 7
        assert observer.limit(9) == 1
        assert observer.limit(10) == 0
        assert observer.limit(11) == 9
        assert AuditBatchObserver(1).limit(0) == 1
        assert AuditBatchObserver(1).limit(5) == 0

    def test_chain_takes_most_restrictive_limit_and_fans_out(self):
        class Fixed:
            def __init__(self, limit):
                self._limit = limit
                self.seen = []

            def limit(self, position):
                return self._limit

            def on_hits(self, count, position):
                self.seen.append((count, position))

        near, far = Fixed(3), Fixed(100)
        chain = BatchObserverChain([near, None, far])
        assert chain.limit(0) == 3
        chain.on_hits(2, 5)
        assert near.seen == far.seen == [(2, 5)]


class TestCapabilityNegotiation:
    def test_every_lifecycle_kind_keeps_vector(self):
        trace = make_trace([((i % N_PAGES,), False) for i in range(40)])
        for telemetry in (
            Telemetry(window=10),
            Telemetry(window=10, lifecycle_sample_rate=0.25),
            Telemetry(window=10, lifecycle=True),
        ):
            runtime = GMTRuntime(small_config())
            runtime.attach_telemetry(telemetry)
            runtime.run(trace)
            assert runtime.engine_resolution()[0] == "vector"

    def test_sample_rate_validated(self):
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                SampledLifecycleRecorder(rate)

    def test_sampling_is_deterministic_and_page_complete(self):
        a, b = SampledLifecycleRecorder(0.5), SampledLifecycleRecorder(0.5)
        decisions = [a.sampled(page) for page in range(512)]
        assert decisions == [b.sampled(page) for page in range(512)]
        assert any(decisions) and not all(decisions)
        # A different seed draws a different subset.
        other = SampledLifecycleRecorder(0.5, seed=1)
        assert decisions != [other.sampled(page) for page in range(512)]


class TestEngineResolution:
    def test_reasons(self):
        # Every runtime batches, whatever its Tier-1 structure, the
        # serving runtime included; both servers say why they do not.
        from repro.serve import OpenLoopServer, TenantServer, build_tenants

        batched = ("vector", "Tier-1 hit runs retire in batches")
        assert GMTRuntime(small_config()).engine_resolution() == batched
        zoo = small_config(tier1_eviction="s3fifo")
        assert GMTRuntime(zoo).engine_resolution() == batched
        streams = build_tenants(["bfs", "hotspot"], small_config())
        server = TenantServer(small_config(), streams)
        assert server.runtime.engine_resolution() == batched
        per_warp = ("scalar", "the server issues warps one at a time")
        assert server.engine_resolution() == per_warp
        assert OpenLoopServer(small_config(), streams).engine_resolution() == per_warp

    def test_runtime_reports_live_resolution(self):
        trace = make_trace([((i % N_PAGES,), False) for i in range(40)])
        runtime = GMTRuntime(small_config())
        runtime.attach_telemetry(Telemetry(window=10, lifecycle=True))
        runtime.enable_periodic_checks(every=7)
        runtime.run(trace)
        assert runtime.engine_resolution() == (
            "vector", "Tier-1 hit runs retire in batches"
        )

    def test_attached_profiler_keeps_the_vector_engine(self):
        trace = make_trace(
            [((i % N_PAGES, (i * 5) % N_PAGES), i % 4 == 0) for i in range(200)]
        )
        reference = GMTRuntime(small_config()).replay_per_warp(trace)
        profiled = GMTRuntime(small_config())
        profiled.attach_profiler(PhaseProfiler())
        try:
            result = profiled.run(trace)
            resolution = profiled.engine_resolution()
        finally:
            profiled.detach_profiler()
        assert resolution == ("vector", "Tier-1 hit runs retire in batches")
        assert result.stats.as_dict() == reference.stats.as_dict()
        assert result.stats.confusion == reference.stats.confusion
        assert result.elapsed_ns == reference.elapsed_ns


class TestWindowDesyncSelfTest:
    def test_injection_is_caught_and_clean_runs_pass(self):
        from repro.check.differential import (
            _inject_window_desync,
            check_telemetry_parity,
        )

        trace = make_trace(
            [((i % N_PAGES, (i * 7) % N_PAGES), i % 3 == 0) for i in range(90)]
        )
        config = small_config()
        clean, note = check_telemetry_parity("tier-order", config, trace, window=13)
        assert clean == [] and note is None
        violations, note = check_telemetry_parity(
            "tier-order", config, trace, window=13, corrupt=_inject_window_desync
        )
        assert violations
        assert note is not None and "shifted" in note
        assert all(v.identity == "telemetry-parity" for v in violations)

    def test_corrupted_lifecycle_event_is_caught(self):
        from repro.check.differential import check_telemetry_parity

        def corrupt_first_event(telemetry):
            # Shift the access index of the vector side's first lifecycle
            # event; every other surface stays intact.
            recorder = telemetry.lifecycle
            emit = recorder.emit

            def emit_once_corrupted(kind, page, access, *args, **kwargs):
                del recorder.emit
                return emit(kind, page, access + 1, *args, **kwargs)

            recorder.emit = emit_once_corrupted
            return "first lifecycle event's access shifted"

        trace = make_trace(
            [((i % N_PAGES, (i * 7) % N_PAGES), i % 3 == 0) for i in range(90)]
        )
        violations, note = check_telemetry_parity(
            "tier-order", small_config(), trace, window=13,
            corrupt=corrupt_first_event,
        )
        assert note is not None
        assert len(violations) == 1
        assert violations[0].identity == "telemetry-parity"
        assert "lifecycle events diverge" in violations[0].message
        assert "entry 0 differs in access" in violations[0].message
