"""Batch-aware telemetry: byte-identity of instrumented replays.

The contract under test (docs/observability.md): windowed snapshots,
latency-digest state, Perfetto counter tracks, anomaly findings and the
full and sampled lifecycle streams are byte-identical between the
per-warp reference replay and the batched ``run`` — on any trace, under
any policy, with batches deliberately straddling window boundaries
(small prime intervals).  A hit-dominated trace pins, at replay level,
that hit batches stop before window cuts, and before the nearer of a
cut and an audit.  The unit tests pin sampled-lifecycle admission, the
engine labels kept for outside callers and the batching they claim, and
the ``window-desync`` and lifecycle-corruption self-tests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError
from repro.obs import Telemetry
from repro.obs.anomaly import AnomalyDetector
from repro.obs.export import counter_track_events
from repro.obs.lifecycle import SampledLifecycleRecorder
from repro.prof import PhaseProfiler
from repro.sim.gpu import WarpAccess
from tests.conftest import record_batches

N_PAGES = 48  # footprint; tier1=8 frames forces heavy eviction traffic


def small_config(**overrides):
    return GMTConfig(tier1_frames=8, tier2_frames=16, **overrides)


def make_trace(warps):
    return [WarpAccess(pages=tuple(pages), write=write) for pages, write in warps]


#: 3,000 two-lane warps over 6 pages: after the cold misses every access
#: hits the 8 Tier-1 frames, so hit batches run into every boundary.
HIT_TRACE = make_trace([((i % 6, (i + 1) % 6), i % 5 == 0) for i in range(3000)])


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


class TestHitBatchCaps:
    """A batch that ran through a window cut or an audit would cut or
    audit at a later position, or over end-of-batch counters (audits
    alone: tests/test_core_vector.py)."""

    @pytest.mark.parametrize("window", [7, 13, 997])
    def test_hit_batches_stop_before_window_cuts(self, window):
        config = small_config().with_policy("tier-order")
        runtime = GMTRuntime(config)
        batched = runtime.attach_telemetry(Telemetry(window=window))
        batches = record_batches(runtime)
        runtime.run(HIT_TRACE)
        _, reference = instrumented_run(config, HIT_TRACE, True, window)
        assert sum(batches) > 4000  # of 6,000 accesses
        assert batched.windows() == reference.windows()

    def test_nearer_of_cut_and_audit_stops_the_batch(self):
        def replay(per_warp):
            runtime = GMTRuntime(small_config().with_policy("tier-order"))
            telemetry = runtime.attach_telemetry(Telemetry(window=7))
            runtime.enable_periodic_checks(11)
            audits = []
            check = runtime._periodic_check

            def recording_check():
                audits.append(runtime.stats.as_dict())
                check()

            runtime._periodic_check = recording_check
            batches = record_batches(runtime)
            (runtime.replay_per_warp if per_warp else runtime.run)(HIT_TRACE)
            return telemetry.windows(), audits, sum(batches)

        windows, audits, retired = replay(per_warp=False)
        assert retired > 3000
        assert (windows, audits) == replay(per_warp=True)[:2]


class TestCapabilityNegotiation:
    def test_every_lifecycle_kind_keeps_vector(self):
        # No recorder sends hits back to the per-access path: with any
        # of them attached, hit runs still retire in batches.
        config = small_config().with_policy("tier-order")
        for telemetry in (
            Telemetry(window=1000),
            Telemetry(window=1000, lifecycle_sample_rate=0.25),
            Telemetry(window=1000, lifecycle=True),
        ):
            runtime = GMTRuntime(config)
            runtime.attach_telemetry(telemetry)
            batches = record_batches(runtime)
            runtime.run(HIT_TRACE)
            assert sum(batches) > 4000

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
        # The labels kept for callers outside the package: every runtime
        # batches, whatever its Tier-1 structure, the serving runtime
        # included; the open loop issues warps one at a time.
        from repro.serve import OpenLoopServer, TenantServer, build_tenants

        batched = ("vector", "Tier-1 hit runs retire in batches")
        assert GMTRuntime(small_config()).engine_resolution() == batched
        zoo = small_config(tier1_eviction="s3fifo")
        assert GMTRuntime(zoo).engine_resolution() == batched
        streams = build_tenants(["bfs", "hotspot"], small_config())
        server = TenantServer(small_config(), streams)
        assert server.runtime.engine_resolution() == batched
        per_warp = ("scalar", "the server issues warps one at a time")
        assert OpenLoopServer(small_config(), streams).engine_resolution() == per_warp

    def test_runtime_reports_live_resolution(self):
        # What the label claims, observed: with windowed telemetry, the
        # full lifecycle recorder and in-run audits attached, hit runs
        # still retire in batches.
        runtime = GMTRuntime(small_config().with_policy("tier-order"))
        runtime.attach_telemetry(Telemetry(window=10, lifecycle=True))
        runtime.enable_periodic_checks(every=7)
        batches = record_batches(runtime)
        runtime.run(HIT_TRACE)
        assert sum(batches) > len(HIT_TRACE)

    def test_attached_profiler_keeps_the_vector_engine(self):
        config = small_config().with_policy("tier-order")
        reference = GMTRuntime(config).replay_per_warp(HIT_TRACE)
        profiled = GMTRuntime(config)
        batches = record_batches(profiled)
        profiled.attach_profiler(PhaseProfiler())
        try:
            result = profiled.run(HIT_TRACE)
        finally:
            profiled.detach_profiler()
        assert sum(batches) > len(HIT_TRACE)
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
