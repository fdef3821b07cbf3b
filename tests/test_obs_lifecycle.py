"""Page-lifecycle flight recorder: ring bounds, journeys, queries, export."""

import random
import tracemalloc

import pytest

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError
from repro.obs import LifecycleQuery, Telemetry
from repro.obs.lifecycle import (
    FILL_KINDS,
    LifecycleEvent,
    LifecycleKind,
    LifecycleRecorder,
    lifecycle_trace_events,
    load_lifecycle_jsonl,
    write_lifecycle_jsonl,
)


def make_config(**kwargs):
    return GMTConfig(
        tier1_frames=kwargs.pop("tier1", 16),
        tier2_frames=kwargs.pop("tier2", 64),
        policy=kwargs.pop("policy", "reuse"),
        sample_target=200,
        sample_batch=40,
        **kwargs,
    )


def random_pages(n=3000, universe=512, seed=11):
    rng = random.Random(seed)
    return [rng.randrange(universe) for _ in range(n)]


def recorded_run(pages=None, config=None, capacity=None, writes=False):
    runtime = GMTRuntime(config or make_config())
    telemetry = Telemetry(lifecycle=capacity if capacity is not None else True)
    runtime.attach_telemetry(telemetry)
    rng = random.Random(3)
    for page in pages if pages is not None else random_pages():
        runtime.access(page, write=writes and rng.random() < 0.4)
    return runtime, telemetry


class TestRecorder:
    def test_emits_with_monotonic_seq(self):
        rec = LifecycleRecorder(capacity=None)
        for i in range(5):
            rec.emit(LifecycleKind.ADMIT, page=i, access=i)
        assert [e.seq for e in rec] == list(range(5))
        assert rec.emitted == 5 and rec.dropped == 0

    def test_ring_bound_respected_under_long_workload(self):
        rec = LifecycleRecorder(capacity=64)
        for i in range(1000):
            rec.emit(LifecycleKind.ADMIT, page=i % 7, access=i)
        assert len(rec) == 64
        assert rec.emitted == 1000
        assert rec.dropped == 936
        # Drop-oldest: survivors are the most recent emissions.
        assert [e.access for e in rec] == list(range(936, 1000))

    def test_ring_bound_in_live_run(self):
        runtime, telemetry = recorded_run(capacity=64)
        rec = telemetry.lifecycle
        assert rec.emitted > 64  # the workload outlives the ring
        assert len(rec) == 64
        assert rec.dropped == rec.emitted - 64

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            LifecycleRecorder(capacity=0)

    def test_filters(self):
        rec = LifecycleRecorder()
        rec.emit(LifecycleKind.ADMIT, page=1, access=0)
        rec.emit(LifecycleKind.DEMOTE, page=1, access=1)
        rec.emit(LifecycleKind.ADMIT, page=2, access=2)
        assert len(rec.events(page=1)) == 2
        assert len(rec.events(kind=LifecycleKind.ADMIT)) == 2
        assert len(rec.events(page=1, kind=LifecycleKind.ADMIT)) == 1

    def test_clear_resets_counts(self):
        rec = LifecycleRecorder()
        rec.emit(LifecycleKind.ADMIT, page=1, access=0)
        rec.clear()
        assert len(rec) == 0 and rec.emitted == 0 and rec.dropped == 0


class TestZeroCostWhenDisabled:
    def test_disabled_runtime_never_touches_the_recorder(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("LifecycleRecorder.emit called while disabled")

        monkeypatch.setattr(LifecycleRecorder, "emit", boom)
        runtime = GMTRuntime(make_config())
        for page in random_pages(n=800):
            runtime.access(page)
        assert runtime._flight is None

    def test_disabled_runtime_allocates_nothing_in_lifecycle_module(self):
        import repro.obs.lifecycle as lifecycle_module

        runtime = GMTRuntime(make_config())
        for page in random_pages(n=50):
            runtime.access(page)  # warm up lazily-built structures
        trace_filter = tracemalloc.Filter(True, lifecycle_module.__file__)
        tracemalloc.start()
        try:
            for page in random_pages(n=500, seed=12):
                runtime.access(page)
            snapshot = tracemalloc.take_snapshot().filter_traces([trace_filter])
        finally:
            tracemalloc.stop()
        assert snapshot.statistics("filename") == []


class TestRuntimeEmissionSites:
    def test_every_faulted_page_starts_with_an_admit(self):
        for config in (make_config(), make_config(prefetch_degree=2)):
            runtime, telemetry = recorded_run(config=config)
            query = LifecycleQuery(telemetry.lifecycle.events())
            for page in query.pages:
                journey = [
                    e for e in query.journey(page)
                    if e.kind is not LifecycleKind.RESOLVE
                ]
                assert journey[0].kind is LifecycleKind.ADMIT
                assert journey[0].cause in ("demand-miss", "prefetch")
        # The prefetching run really admitted pages ahead of demand.
        admits = telemetry.lifecycle.events(kind=LifecycleKind.ADMIT)
        assert any(e.cause == "prefetch" for e in admits)

    def test_figure2_demote_then_promote_storyline(self):
        """Paper Figure 2 end to end: cold fill from the SSD, eviction into
        Tier-2, then a Tier-2 hit brings the page back to Tier-1."""
        runtime = GMTRuntime(
            GMTConfig(tier1_frames=2, tier2_frames=4, policy="tier-order")
        )
        rec = runtime.attach_flight_recorder(capacity=None)
        for page in (1, 2, 3, 1):
            runtime.access(page)
        journey = [
            (e.kind, e.tier_from, e.tier_to, e.cause)
            for e in LifecycleQuery(rec.events()).journey(1)
        ]
        assert journey == [
            (LifecycleKind.ADMIT, "T3", "T1", "demand-miss"),
            (LifecycleKind.DEMOTE, "T1", "T2", "policy-static"),
            (LifecycleKind.PROMOTE, "T2", "T1", "demand-miss"),
        ]

    def test_event_counts_reconcile_with_stats(self):
        runtime, telemetry = recorded_run()
        rec = telemetry.lifecycle
        assert rec.dropped == 0
        stats = runtime.stats
        kinds = {}
        for event in rec:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        assert kinds.get(LifecycleKind.DEMOTE, 0) == stats.t2_placements
        assert kinds.get(LifecycleKind.T2_EVICT, 0) == stats.t2_evictions
        assert (
            kinds.get(LifecycleKind.ADMIT, 0)
            == stats.ssd_page_reads + stats.prefetch_wasted
        )
        assert kinds.get(LifecycleKind.PROMOTE, 0) == stats.t2_fetches

    def test_journeys_alternate_fills_and_exits(self):
        runtime, telemetry = recorded_run()
        query = LifecycleQuery(telemetry.lifecycle.events())
        for page in query.pages:
            resident = False
            for event in query.journey(page):
                if event.kind in FILL_KINDS:
                    assert not resident, f"double fill for page {page}"
                    resident = True
                elif event.kind in (LifecycleKind.DEMOTE, LifecycleKind.BYPASS):
                    assert resident, f"exit without residency for page {page}"
                    resident = False

    def test_bypass_records_dirtiness_detail(self):
        runtime, telemetry = recorded_run(writes=True)
        bypasses = telemetry.lifecycle.events(kind=LifecycleKind.BYPASS)
        if not bypasses:
            pytest.skip("workload produced no bypasses")
        assert all(
            e.detail == ("writeback-dirty" if e.dirty else "discard-clean")
            for e in bypasses
        )

    def test_standalone_flight_recorder_without_telemetry(self):
        runtime = GMTRuntime(make_config())
        rec = runtime.attach_flight_recorder(capacity=10_000)
        for page in random_pages(n=400):
            runtime.access(page)
        assert runtime._obs is None  # only the flight recorder is on
        assert rec.emitted > 0
        last_ts = max(e.ts_ns for e in rec)
        assert last_ts > 0  # clock wired to the runtime's cost model
        runtime.detach_flight_recorder()
        emitted = rec.emitted
        runtime.access(1)
        assert rec.emitted == emitted

    def test_both_attachment_paths_record_one_stream(self):
        # attach_flight_recorder() and Telemetry(lifecycle=True) are one
        # wiring path: the runtime records what the policy resolved, so
        # the recorder-only path gets the RESOLVE events too.
        from repro.experiments.harness import build_runtime, default_config, get_workload

        config = default_config(8192)
        workload = get_workload("srad", config, seed=0)
        standalone = build_runtime("reuse", config)
        recorder = standalone.attach_flight_recorder(capacity=None)
        standalone.run(workload)
        wired = build_runtime("reuse", config)
        telemetry = wired.attach_telemetry(Telemetry(lifecycle=True))
        wired.run(workload)
        assert recorder.events(kind=LifecycleKind.RESOLVE)
        assert [e.to_dict() for e in recorder] == [
            e.to_dict() for e in telemetry.lifecycle
        ]

    def test_detach_telemetry_clears_flight_hook(self):
        runtime, telemetry = recorded_run(pages=[1, 2, 3])
        assert runtime._flight is telemetry.lifecycle
        runtime.detach_telemetry()
        assert runtime._flight is None


class TestQueries:
    def test_explain_miss_names_the_page_and_cause(self):
        runtime, telemetry = recorded_run()
        query = LifecycleQuery(telemetry.lifecycle.events())
        fill = next(e for e in telemetry.lifecycle if e.kind in FILL_KINDS)
        answer = query.explain_miss(fill.access)
        assert answer is not None
        assert f"page {fill.page}" in answer
        assert "cold miss" in answer or "verdict" in answer or "departure" in answer

    def test_explain_miss_returns_none_for_hits(self):
        runtime, telemetry = recorded_run()
        filled = {e.access for e in telemetry.lifecycle if e.kind in FILL_KINDS}
        hit_access = next(
            i for i in range(runtime.stats.coalesced_accesses) if i not in filled
        )
        assert LifecycleQuery(telemetry.lifecycle.events()).explain_miss(hit_access) is None

    def test_refault_after_bypass_is_diagnosed_as_misprediction(self):
        rec = LifecycleRecorder()
        rec.emit(LifecycleKind.ADMIT, 7, access=10, tier_from="T3", tier_to="T1",
                 cause="demand-miss")
        rec.emit(LifecycleKind.BYPASS, 7, access=20, tier_from="T1", tier_to="T3",
                 cause="predicted-long", predicted="long", dirty=True)
        rec.emit(LifecycleKind.ADMIT, 7, access=30, tier_from="T3", tier_to="T1",
                 cause="demand-miss")
        answer = LifecycleQuery(rec.events()).explain_miss(30)
        assert "mispredicted" in answer

    def test_tier2_hit_is_credited_to_the_placement(self):
        rec = LifecycleRecorder()
        rec.emit(LifecycleKind.DEMOTE, 7, access=20, tier_from="T1", tier_to="T2",
                 cause="predicted-medium", predicted="medium")
        rec.emit(LifecycleKind.PROMOTE, 7, access=30, tier_from="T2", tier_to="T1",
                 cause="demand-miss")
        answer = LifecycleQuery(rec.events()).explain_miss(30)
        assert "paid off" in answer

    def test_misprediction_costs_charge_bypass_refaults(self):
        rec = LifecycleRecorder()
        # page 1: two charged refaults (one dirty -> +1 writeback)
        rec.emit(LifecycleKind.BYPASS, 1, access=0, predicted="long", dirty=True)
        rec.emit(LifecycleKind.ADMIT, 1, access=5)
        rec.emit(LifecycleKind.BYPASS, 1, access=9, predicted="long")
        rec.emit(LifecycleKind.ADMIT, 1, access=14)
        # page 2: demote (not charged), page 3: bypass never refaulted
        rec.emit(LifecycleKind.DEMOTE, 2, access=1)
        rec.emit(LifecycleKind.PROMOTE, 2, access=6)
        rec.emit(LifecycleKind.BYPASS, 3, access=2, predicted="long")
        costs = LifecycleQuery(rec.events()).misprediction_costs()
        assert [c.page for c in costs] == [1]
        (cost,) = costs
        assert cost.refaults == 2
        assert cost.writebacks == 1
        assert cost.ssd_page_ios == 3
        assert cost.predicted == {"long": 2}
        assert cost.ssd_bytes(65536) == 3 * 65536

    def test_top_k_limits_and_orders(self):
        rec = LifecycleRecorder()
        for page, bounces in ((1, 1), (2, 3), (3, 2)):
            for i in range(bounces):
                rec.emit(LifecycleKind.BYPASS, page, access=10 * page + 2 * i)
                rec.emit(LifecycleKind.ADMIT, page, access=10 * page + 2 * i + 1)
        top = LifecycleQuery(rec.events()).top_misprediction_costs(2)
        assert [c.page for c in top] == [2, 3]

    def test_residency_durations(self):
        rec = LifecycleRecorder()
        rec.emit(LifecycleKind.ADMIT, 5, access=10, tier_from="T3", tier_to="T1")
        rec.emit(LifecycleKind.DEMOTE, 5, access=25, tier_from="T1", tier_to="T2")
        rec.emit(LifecycleKind.PROMOTE, 5, access=40, tier_from="T2", tier_to="T1")
        rec.emit(LifecycleKind.BYPASS, 5, access=45, tier_from="T1", tier_to="T3")
        durations = LifecycleQuery(rec.events()).residency()
        assert durations["T1"] == [15, 5]
        assert durations["T2"] == [15]
        summary = LifecycleQuery(rec.events()).residency_summary()
        assert summary["T1"]["count"] == 2
        assert summary["T1"]["mean"] == 10.0
        assert summary["T2"]["max"] == 15.0

    def test_prediction_outcomes_tally(self):
        runtime, telemetry = recorded_run()
        outcomes = LifecycleQuery(telemetry.lifecycle.events()).prediction_outcomes()
        resolved = sum(outcomes.values())
        assert resolved == sum(
            1 for e in telemetry.lifecycle if e.kind is LifecycleKind.RESOLVE
        )
        stats = runtime.stats
        assert outcomes.get("correct", 0) == stats.correct_predictions
        assert (
            outcomes.get("correct", 0) + outcomes.get("mispredicted", 0)
            == stats.resolved_predictions
        )


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        runtime, telemetry = recorded_run(writes=True)
        events = telemetry.lifecycle.events()
        path = tmp_path / "lifecycle.jsonl"
        count = write_lifecycle_jsonl(str(path), events)
        assert count == len(events)
        loaded = load_lifecycle_jsonl(str(path))
        assert loaded == events

    def test_jsonl_extra_keys_survive_load(self, tmp_path):
        rec = LifecycleRecorder()
        rec.emit(LifecycleKind.ADMIT, 1, access=0)
        path = tmp_path / "lc.jsonl"
        write_lifecycle_jsonl(str(path), rec.events(), extra={"runtime": "reuse"})
        assert load_lifecycle_jsonl(str(path)) == rec.events()

    def test_trace_events_one_lane_per_kind(self):
        rec = LifecycleRecorder()
        rec.clock = lambda: 1000.0
        rec.emit(LifecycleKind.ADMIT, 1, access=0)
        rec.emit(LifecycleKind.DEMOTE, 1, access=1)
        rec.emit(LifecycleKind.ADMIT, 2, access=2)
        trace = lifecycle_trace_events(rec.events())
        meta = [e for e in trace if e["ph"] == "M"]
        instants = [e for e in trace if e["ph"] == "i"]
        assert {m["args"]["name"] for m in meta} == {
            "lifecycle/admit",
            "lifecycle/demote",
        }
        assert len(instants) == 3
        admit_tid = next(
            m["tid"] for m in meta if m["args"]["name"] == "lifecycle/admit"
        )
        assert [e["tid"] for e in instants if e["name"] == "admit"] == [admit_tid] * 2

    def test_tenant_events_get_their_own_lane(self):
        rec = LifecycleRecorder()
        tenant = {"name": None}
        rec.tenant_source = lambda: tenant["name"]
        rec.emit(LifecycleKind.ADMIT, 1, access=0)
        tenant["name"] = "bfs"
        rec.emit(LifecycleKind.ADMIT, 2, access=1)
        trace = lifecycle_trace_events(rec.events())
        names = {m["args"]["name"] for m in trace if m["ph"] == "M"}
        assert names == {"lifecycle/admit", "lifecycle/admit [bfs]"}

    def test_event_round_trips_through_dict(self):
        event = LifecycleEvent(
            seq=3, access=17, ts_ns=123.5, page=9, kind=LifecycleKind.BYPASS,
            tier_from="T1", tier_to="T3", cause="predicted-long",
            predicted="long", dirty=True, latency_ns=42.0, tenant="bfs",
            detail="writeback-dirty",
        )
        assert LifecycleEvent.from_dict(event.to_dict()) == event
