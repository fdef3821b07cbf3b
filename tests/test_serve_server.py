"""End-to-end tests for the multi-tenant serving layer (repro.serve)."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.runtime import GMTRuntime
from repro.core.stats import RuntimeStats
from repro.errors import ConfigError, SimulationError
from repro.experiments.harness import default_config, get_workload
from repro.serve import (
    GovernorConfig,
    QuotaConfig,
    TenantServer,
    TenantSpec,
    build_tenants,
    split_frames,
)
from repro.serve.runtime import TenantAwareRuntime
from repro.serve.stream import TenantStream

SCALE = 8192  # tiny geometry: Tier-1 = 32 frames, Tier-2 = 128


@pytest.fixture(scope="module")
def config():
    return default_config(SCALE)


def make_server(config, names, **kwargs):
    streams = build_tenants(list(names), config)
    return TenantServer(config, streams, **kwargs)


class TestNamespacing:
    """Tenants occupy contiguous ranges of one dense page space."""

    def test_tenant_zero_is_identity(self, config):
        streams = build_tenants(["bfs", "hotspot"], config)
        assert streams[0].base == 0
        assert list(streams[0]) == list(streams[0].workload)

    def test_owner_roundtrip(self, config):
        streams = build_tenants(["bfs", "hotspot", "srad"], config)
        runtime = TenantAwareRuntime(config, streams)
        for stream in streams:
            last = stream.base + stream.footprint_pages - 1
            assert runtime.owner_of(stream.base) == stream.index
            assert runtime.owner_of(last) == stream.index

    def test_streams_never_alias(self, config):
        streams = build_tenants(["bfs", "bfs"], config)
        pages0 = {p for w in streams[0] for p in w.pages}
        pages1 = {p for w in streams[1] for p in w.pages}
        assert not pages0 & pages1
        assert streams[1].base == streams[0].footprint_pages
        for stream, pages in zip(streams, (pages0, pages1)):
            assert stream.base <= min(pages)
            assert max(pages) < stream.base + stream.footprint_pages

    def test_invalid_stream_layouts_rejected(self, config):
        streams = build_tenants(["bfs", "hotspot"], config)
        with pytest.raises(ConfigError, match="index order"):
            TenantAwareRuntime(config, list(reversed(streams)))
        second = streams[1]
        gap = TenantStream(1, second.spec, second.workload, second.base + 1)
        with pytest.raises(ConfigError, match="contiguous"):
            TenantAwareRuntime(config, [streams[0], gap])
        # Telemetry keys each tenant's digest by its name.
        twin = TenantStream(
            1, replace(second.spec, name="bfs"), second.workload, second.base
        )
        with pytest.raises(ConfigError, match="unique"):
            TenantAwareRuntime(config, [streams[0], twin])


class TestBuildTenants:
    def test_duplicate_names_disambiguated(self, config):
        streams = build_tenants(["bfs", "bfs", "bfs"], config)
        assert [s.name for s in streams] == ["bfs", "bfs-2", "bfs-3"]

    def test_working_set_is_shared(self, config):
        solo = build_tenants(["bfs"], config)
        pair = build_tenants(["bfs", "pagerank"], config)
        assert pair[0].footprint_pages == solo[0].footprint_pages // 2

    def test_empty_rejected(self, config):
        with pytest.raises(ConfigError):
            build_tenants([], config)

    def test_specs_pass_through(self, config):
        streams = build_tenants(
            [TenantSpec(name="hot", workload="hotspot", weight=2.0, arrival=5)],
            config,
        )
        assert streams[0].weight == 2.0
        assert streams[0].arrival == 5


class TestSoloReproduction:
    """Acceptance: a 1-tenant serve run reproduces the single-stream
    RunResult exactly."""

    def test_matches_single_stream_run(self, config):
        workload = get_workload("bfs", config)
        solo = GMTRuntime(config).run(workload)
        outcome = make_server(config, ["bfs"]).run(solo_baselines=False)
        served = outcome.result
        assert served.elapsed_ns == solo.elapsed_ns
        for field in RuntimeStats.counter_names():
            assert getattr(served.stats, field) == getattr(solo.stats, field), field

    def test_solo_slowdown_is_one(self, config):
        outcome = make_server(config, ["bfs"]).run()
        assert outcome.tenants[0].slowdown == pytest.approx(1.0)
        assert outcome.fairness()["jain_index"] == pytest.approx(1.0)

    def test_solo_slowdown_is_one_with_prefetch(self, config):
        # The served prefetch stops at the tenant's range end, and so does
        # the solo baseline's, at the footprint.
        outcome = make_server(replace(config, prefetch_degree=2), ["hotspot"]).run()
        assert outcome.tenants[0].slowdown == 1.0


class TestSoloBaselines:
    def test_every_tenant_solo_matches_its_namespaced_stream(self, config):
        # Solo baselines replay each tenant's own workload; on an empty
        # machine each equals a replay of the tenant's shifted stream.
        server = make_server(config, ["bfs", "hotspot", "srad"])
        server.attach_telemetry()
        outcome = server.run()
        for stream, tenant in zip(server.streams, outcome.tenants):
            shifted = GMTRuntime(config)
            telemetry = shifted.attach_telemetry()
            assert tenant.solo_ns == shifted.run(iter(stream)).elapsed_ns
            digest = telemetry.latency_digest
            assert tenant.solo_latency_p50_ns == digest.p50
            assert tenant.solo_latency_p99_ns == digest.p99


class TestSharedRun:
    @pytest.fixture(scope="class")
    def outcome(self, config):
        server = make_server(config, ["bfs", "pagerank"])
        result = server.run()
        return server, result

    def test_tenant_slices_sum_to_aggregate(self, outcome):
        server, result = outcome
        aggregate = result.result.stats
        for field in RuntimeStats.counter_names():
            total = sum(getattr(t.stats, field) for t in result.tenants)
            assert total == getattr(aggregate, field), field

    def test_every_tenant_issued_work(self, outcome):
        _, result = outcome
        for t in result.tenants:
            assert t.issued_warps > 0
            assert t.issued_bytes > 0

    def test_finish_within_makespan(self, outcome):
        _, result = outcome
        for t in result.tenants:
            assert 0 < t.finish_ns <= result.elapsed_ns + 1e-6

    def test_slowdowns_and_fairness_reported(self, outcome):
        _, result = outcome
        fairness = result.fairness()
        assert fairness["min_slowdown"] > 0
        assert fairness["max_slowdown"] >= fairness["min_slowdown"]
        assert 0 < fairness["jain_index"] <= 1.0

    def test_table_renders(self, outcome):
        _, result = outcome
        text = result.to_table()
        assert "bfs" in text and "pagerank" in text
        assert "Jain" in text

    def test_invariants_hold_after_run(self, outcome):
        server, _ = outcome
        server.runtime.check_invariants()


class TestTenantCharging:
    def test_slices_match_a_per_warp_reference(self, config):
        # The reference is independent of the switch-time charging: the
        # counter and confusion-matrix movement around every warp,
        # summed per issuing tenant.
        server = make_server(
            config,
            ["bfs", "hotspot", "srad"],
            discipline="weighted-fair",
            epoch=3,
            quota=QuotaConfig(mode="static"),
            governor=GovernorConfig(tokens_per_1k_accesses=200.0),
        )
        runtime = server.runtime
        names = RuntimeStats.counter_names()
        counters = [Counter() for _ in server.streams]
        confusion = [Counter() for _ in server.streams]
        access_warp = runtime.access_warp

        def traced(warp):
            before = runtime.stats.as_dict()
            before_confusion = Counter(runtime.stats.confusion)
            access_warp(warp)
            after = runtime.stats.as_dict()
            tenant = runtime.current_tenant
            counters[tenant].update({n: after[n] - before[n] for n in names})
            confusion[tenant].update(Counter(runtime.stats.confusion) - before_confusion)

        runtime.access_warp = traced
        result = server.run(solo_baselines=False)
        stats = runtime.stats
        assert stats.t2_quota_denials and stats.migration_throttled
        assert stats.resolved_predictions
        for index, tenant in enumerate(result.tenants):
            assert {n: getattr(tenant.stats, n) for n in names} == {
                n: counters[index][n] for n in names
            }
            assert tenant.stats.confusion == dict(confusion[index])


class TestStaticQuotas:
    """Acceptance: with static quotas no tenant's residency ever exceeds
    its frame budget."""

    @pytest.fixture(scope="class")
    def served(self, config):
        server = make_server(
            config,
            ["bfs", "pagerank"],
            quota=QuotaConfig(mode="static"),
        )
        result = server.run(solo_baselines=False)
        return server, result

    def test_tier1_peaks_within_budget(self, served):
        server, result = served
        quotas = server.runtime.quotas
        for t in result.tenants:
            idx = result.tenants.index(t)
            assert t.peak_tier1 <= quotas.static_tier1_budget(idx)
            assert t.peak_tier1 == quotas.peak(1, idx)

    def test_tier2_peaks_within_budget(self, served):
        server, result = served
        quotas = server.runtime.quotas
        for idx, t in enumerate(result.tenants):
            assert t.peak_tier2 <= quotas.static_tier2_budget(idx)

    def test_quota_machinery_engaged(self, served):
        server, _ = served
        stats = server.runtime.stats
        assert stats.quota_evictions > 0 or stats.t2_quota_denials > 0

    def test_budgets_partition_capacity(self, config, served):
        server, _ = served
        quotas = server.runtime.quotas
        n = len(server.streams)
        assert (
            sum(quotas.static_tier1_budget(i) for i in range(n))
            <= config.tier1_frames
        )
        assert (
            sum(quotas.static_tier2_budget(i) for i in range(n))
            <= config.tier2_frames
        )


class TestDynamicQuotas:
    def test_fifo_lets_lone_tenant_exceed_static_share(self, config):
        # Under FIFO the second tenant runs alone after the first drains;
        # dynamic reclaim should let it grow past its static share.
        server = make_server(
            config,
            ["bfs", "pagerank"],
            discipline="fifo",
            quota=QuotaConfig(mode="dynamic", idle_window=50),
        )
        result = server.run(solo_baselines=False)
        quotas = server.runtime.quotas
        grew = any(
            t.peak_tier1 > quotas.static_tier1_budget(i)
            for i, t in enumerate(result.tenants)
        )
        assert grew
        # Physical capacity is still respected.
        assert sum(quotas.residents(1).values()) <= config.tier1_frames


#: Per-tenant values each locked mix pins, in row order; the last two
#: are the tenant's peak Tier-1 and Tier-2 residency.
_LOCKED_FIELDS = (
    "t1_misses",
    "t2_hits",
    "quota_evictions",
    "t2_quota_denials",
    "demotions_throttled",
    "promotions_throttled",
    "ssd_page_writes",
)


class TestQuotaDecisionsLock:
    """What quota enforcement decides, pinned per tenant.

    The invariant tests above only bound peaks by budgets; these mixes
    pin the decisions themselves (self-evictions, Tier-2 denials, both
    governor throttles, dynamic reclaim) and the peaks they leave, so a
    change to residency bookkeeping that alters a single victim fails
    here.  Dropping the per-tenant count update of a Tier-2 promotion,
    for instance, changes all three mixes.
    """

    @staticmethod
    def _served(names, **kwargs):
        config = default_config(SCALE)
        streams = build_tenants(
            [TenantSpec(name=n, workload=n) for n in names], config, seed=0
        )
        server = TenantServer(config, streams, **kwargs)
        result = server.run(solo_baselines=False)
        rows = {
            t.tenant: tuple(getattr(t.stats, f) for f in _LOCKED_FIELDS)
            + (t.peak_tier1, t.peak_tier2)
            for t in result.tenants
        }
        server.runtime.check_invariants()
        return round(result.result.elapsed_ns), rows

    def test_static_round_robin(self):
        # Tier-1 self-eviction and Tier-2 denials both engage.
        elapsed, rows = self._served(
            ["bfs", "hotspot", "srad"],
            discipline="round-robin",
            quota=QuotaConfig(mode="static"),
        )
        assert elapsed == 39381151
        assert rows == {
            "bfs": (202, 16, 5, 132, 0, 0, 10, 11, 43),
            "hotspot": (1095, 381, 0, 660, 0, 0, 335, 11, 43),
            "srad": (977, 306, 3, 582, 0, 0, 303, 10, 42),
        }

    def test_dynamic_fifo_reclaim(self):
        # Pagerank runs alone after bfs drains and grows past its static
        # share (16 Tier-1 frames) to the whole tier.
        elapsed, rows = self._served(
            ["bfs", "pagerank"],
            discipline="fifo",
            quota=QuotaConfig(mode="dynamic", idle_window=50),
        )
        assert elapsed == 6927490
        assert rows == {
            "bfs": (200, 32, 184, 88, 0, 0, 7, 16, 64),
            "pagerank": (713, 553, 0, 16, 0, 0, 6, 32, 128),
        }

    def test_partitioned_zoo_with_governor(self):
        # Per-tenant lfu/mru partitions; both kinds of throttle fire.
        elapsed, rows = self._served(
            ["bfs", "hotspot", "srad"],
            discipline="weighted-fair",
            quota=QuotaConfig(mode="static"),
            tier1_policy="lfu",
            tier2_policy="mru",
            governor=GovernorConfig(tokens_per_1k_accesses=20.0, burst=4.0),
        )
        assert elapsed == 54035930
        assert rows == {
            "bfs": (201, 3, 1, 0, 175, 3, 19, 11, 12),
            "hotspot": (1093, 43, 0, 0, 1033, 42, 515, 11, 10),
            "srad": (990, 43, 0, 0, 931, 42, 318, 10, 8),
        }


class TestQuotaCountAudit:
    def test_drifted_count_is_a_structural_violation(self, config):
        from repro.check.identities import audit_runtime

        server = make_server(
            config, ["bfs", "pagerank"], quota=QuotaConfig(mode="static")
        )
        server.run(solo_baselines=False)
        runtime = server.runtime
        assert audit_runtime(runtime) == []
        # A Tier-1 entry with no page behind it: a missed count update.
        runtime.quotas.entered(1, server.streams[1].base)
        assert any(
            v.identity == "structural" and "Tier-1 per-tenant counts" in v.message
            for v in audit_runtime(runtime)
        )


class TestServedAddressSpace:
    """A served run keeps the single-stream runtime's page table, hit map
    and telemetry sink over its tenants' dense page ranges."""

    def test_prefetch_stays_in_its_tenants_pages(self, config):
        server = make_server(
            replace(config, prefetch_degree=2), ["bfs", "hotspot", "srad"]
        )
        server.run(solo_baselines=False)
        touched = {p for stream in server.streams for w in stream for p in w.pages}
        rows = {state.page for state in server.runtime.page_table}
        assert sorted(rows - touched) == []

    def test_audit_checks_the_served_hit_map(self, config):
        from repro.check.identities import audit_runtime
        from repro.mem.page import PageLocation

        server = make_server(config, ["bfs", "hotspot"])
        server.run(solo_baselines=False)
        runtime = server.runtime
        assert audit_runtime(runtime) == []
        page = next(
            state.page
            for state in runtime.page_table
            if state.location is not PageLocation.TIER1
        )
        runtime._hit_map.bits[page] = True
        assert any(
            v.identity == "structural" and "hit map" in v.message
            for v in audit_runtime(runtime)
        )

    def test_telemetry_labels_policy_instants_and_feeds_tenant_digests(self, config):
        server = make_server(config, ["bfs", "hotspot", "srad"])
        telemetry = server.attach_telemetry()
        outcome = server.run(solo_baselines=False)
        resolves = telemetry.tracer.spans(name="markov-resolve")
        assert resolves
        assert all("tenant" in span.args for span in resolves)
        for tenant, digest in zip(outcome.tenants, server.runtime.tenant_digests):
            assert digest.count == tenant.stats.t1_misses > 0


class TestValidation:
    def test_unknown_discipline(self, config):
        streams = build_tenants(["bfs"], config)
        with pytest.raises(ConfigError):
            TenantServer(config, streams, discipline="lottery")

    def test_streams_must_be_indexed_in_order(self, config):
        streams = build_tenants(["bfs", "pagerank"], config)
        with pytest.raises(ConfigError):
            TenantServer(config, list(reversed(streams)))

    def test_no_streams(self, config):
        with pytest.raises(ConfigError):
            TenantServer(config, [])

    def test_bad_quota_mode(self):
        with pytest.raises(ConfigError):
            QuotaConfig(mode="strict")

    def test_zero_solo_baseline_raises(self, config):
        outcome = make_server(config, ["bfs"]).run(solo_ns={0: 0.0})
        with pytest.raises(SimulationError):
            outcome.tenants[0].slowdown


class TestSplitFrames:
    def test_even_split(self):
        assert split_frames(8, [1.0, 1.0]) == [4, 4]

    def test_weighted_split_sums_to_capacity(self):
        budgets = split_frames(10, [2.0, 1.0, 1.0])
        assert sum(budgets) == 10
        assert budgets[0] == 5

    def test_everyone_gets_a_frame(self):
        budgets = split_frames(4, [100.0, 1.0, 1.0])
        assert min(budgets) >= 1
        assert sum(budgets) <= 4

    def test_too_few_frames_rejected(self):
        with pytest.raises(ConfigError):
            split_frames(2, [1.0, 1.0, 1.0])

    def test_zero_capacity(self):
        assert split_frames(0, [1.0, 1.0]) == [0, 0]


class TestTenantRegistries:
    def test_one_registry_per_tenant_with_label(self, config):
        server = make_server(config, ["bfs", "pagerank"])
        server.run(solo_baselines=False)
        registries = server.tenant_registries()
        assert len(registries) == 2
        labels = [r.const_labels["tenant"] for r in registries]
        assert labels == ["bfs", "pagerank"]
