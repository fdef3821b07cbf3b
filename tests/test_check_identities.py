"""Tests for the stats-identity auditor (repro.check.identities)."""

import pytest

from repro.check.identities import (
    CATALOG,
    CATALOG_NAMES,
    Violation,
    assert_conformant,
    audit_runtime,
    audit_split,
    audit_stats,
)
from repro.core.stats import RuntimeStats
from repro.errors import ConformanceError, SimulationError
from repro.experiments.harness import build_runtime, default_config, get_workload

SCALE = 8192


def replay(app="hotspot", kind="reuse", **overrides):
    config = default_config(SCALE, **overrides)
    workload = get_workload(app, config, seed=0)
    runtime = build_runtime(kind, config)
    runtime.run(workload)
    return runtime


class TestCatalog:
    def test_names_unique(self):
        assert len(CATALOG_NAMES) == len(set(CATALOG_NAMES))

    def test_every_entry_described(self):
        for name, description in CATALOG:
            assert name and description

    def test_violation_rejects_unknown_identity(self):
        with pytest.raises(SimulationError):
            Violation("not-an-identity", "whatever")

    def test_violation_str_carries_identity(self):
        v = Violation("access-conservation", "1 != 2")
        assert str(v) == "access-conservation: 1 != 2"


class TestCleanRuns:
    @pytest.mark.parametrize("kind", ["bam", "tier-order", "random", "reuse", "hmm"])
    def test_every_runtime_audits_clean(self, kind):
        assert audit_runtime(replay(kind=kind)) == []

    @pytest.mark.parametrize("app", ["hotspot", "bfs"])
    def test_both_apps_audit_clean(self, app):
        assert audit_runtime(replay(app=app)) == []

    def test_prefetch_run_audits_clean(self):
        runtime = replay(prefetch_degree=2)
        assert runtime.stats.prefetches_issued > 0
        assert audit_runtime(runtime) == []

    def test_queueing_run_audits_clean(self):
        runtime = replay(time_model="queueing")
        assert runtime._queueing is not None
        assert audit_runtime(runtime) == []

    def test_queueing_prefetch_run_audits_clean(self):
        runtime = replay(prefetch_degree=2, time_model="queueing")
        assert audit_runtime(runtime) == []

    def test_assert_conformant_silent_on_clean_run(self):
        assert_conformant(replay())


class TestBrokenStats:
    def violated(self, stats):
        return {v.identity for v in audit_stats(stats)}

    def test_hit_drift_breaks_access_conservation(self):
        stats = replay().stats
        stats.t1_hits += 1
        assert "access-conservation" in self.violated(stats)

    def test_lost_writeback_breaks_conservation(self):
        stats = replay(app="bfs").stats
        assert stats.ssd_page_writes > 0
        stats.ssd_page_writes -= 1
        assert "writeback-conservation" in self.violated(stats)

    def test_phantom_t2_lookup_detected(self):
        stats = replay().stats
        stats.t2_lookups += 1
        assert "t2-lookup-partition" in self.violated(stats)

    def test_negative_counter_detected(self):
        stats = RuntimeStats()
        stats.t1_evictions = -1
        assert "counter-positivity" in self.violated(stats)

    def test_confusion_matrix_mismatch_detected(self):
        stats = RuntimeStats()
        stats.resolved_predictions = 3
        assert "prediction-accounting" in self.violated(stats)


class TestBrokenRuntime:
    def test_dup_residency_caught_structurally(self):
        runtime = replay(kind="tier-order")
        t2_page = runtime._t2_order.pages()[0]
        t1_page = runtime.t1_clock.pages()[0]
        runtime.t1_clock.remove(t1_page)
        runtime.t1_clock.insert(t2_page)
        assert any(
            v.identity == "structural" and "duplicated across tiers" in v.message
            for v in audit_runtime(runtime)
        )

    def test_device_counter_drift_caught(self):
        runtime = replay()
        runtime.ssd.reads += 1
        violated = {v.identity for v in audit_runtime(runtime)}
        assert "ssd-parity" in violated

    def test_assert_conformant_raises_with_violations(self):
        runtime = replay()
        runtime.stats.t1_hits += 1
        with pytest.raises(ConformanceError) as exc_info:
            assert_conformant(runtime)
        assert exc_info.value.violations
        assert "access-conservation" in str(exc_info.value)


class TestAuditSplit:
    def test_clean_serve_slices_conserve(self):
        from repro.serve import TenantServer, build_tenants

        config = default_config(SCALE)
        streams = build_tenants(["bfs", "pagerank"], config)
        server = TenantServer(config, streams)
        server.run(solo_baselines=False)
        assert audit_split(server.runtime.stats, server.runtime.tenant_stats) == []

    def test_tampered_slice_detected(self):
        aggregate = RuntimeStats()
        aggregate.t1_hits = 10
        piece = RuntimeStats()
        piece.t1_hits = 9
        violations = audit_split(aggregate, [piece])
        assert {v.identity for v in violations} == {"tenant-split-conservation"}


class TestPeriodicChecks:
    def test_periodic_check_passes_on_healthy_run(self):
        config = default_config(SCALE)
        workload = get_workload("hotspot", config, seed=0)
        runtime = build_runtime("reuse", config)
        runtime.enable_periodic_checks(100)
        runtime.run(workload)
        assert audit_runtime(runtime) == []

    def test_interval_validated(self):
        runtime = build_runtime("reuse", default_config(SCALE))
        with pytest.raises(SimulationError):
            runtime.enable_periodic_checks(0)

    def test_none_disables(self):
        runtime = build_runtime("reuse", default_config(SCALE))
        runtime.enable_periodic_checks(1)
        runtime.enable_periodic_checks(None)
        assert runtime._check_every is None
