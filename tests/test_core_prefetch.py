"""Unit tests for the sequential prefetcher and related config knobs."""

import pytest

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError
from repro.mem.page import PageLocation


def make_runtime(prefetch_degree=2, tier1=8, tier2=16, **kwargs):
    cfg = GMTConfig(
        tier1_frames=tier1,
        tier2_frames=tier2,
        policy="tier-order",
        prefetch_degree=prefetch_degree,
        sample_target=50,
        sample_batch=10,
        **kwargs,
    )
    return GMTRuntime(cfg)


class TestPrefetchConfig:
    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            GMTConfig(tier1_frames=4, tier2_frames=4, prefetch_degree=-1)

    def test_zero_disables(self):
        rt = make_runtime(prefetch_degree=0)
        rt.access(10)
        assert rt.stats.prefetches_issued == 0


class TestPrefetchMechanics:
    def test_ssd_miss_prefetches_next_pages(self):
        rt = make_runtime(prefetch_degree=2)
        rt.access(10)
        assert rt.stats.prefetches_issued == 2
        assert rt.page_table.lookup(11).location is PageLocation.TIER1
        assert rt.page_table.lookup(12).location is PageLocation.TIER1
        assert rt.page_table.lookup(11).prefetched

    def test_prefetch_reads_ssd(self):
        rt = make_runtime(prefetch_degree=2)
        rt.access(10)
        assert rt.stats.ssd_page_reads == 3  # demand + 2 prefetches

    def test_already_resident_pages_skipped(self):
        rt = make_runtime(prefetch_degree=2)
        rt.access(11)  # brings 11 (demand), 12, 13 (prefetch)
        issued = rt.stats.prefetches_issued
        rt.access(10)  # prefetch of 11/12 must be skipped
        assert rt.stats.prefetches_issued == issued  # 11 and 12 resident

    def test_tier2_hits_do_not_prefetch(self):
        rt = make_runtime(prefetch_degree=2, tier1=2)
        rt.access(10)  # 10, 11, 12 in Tier-1 (cap 2 -> some evicted)
        rt.access(20)
        rt.access(21)
        # Find a page in Tier-2 and demand it back.
        t2_pages = rt._t2_order.pages()
        if t2_pages:
            issued = rt.stats.prefetches_issued
            rt.access(t2_pages[0])
            assert rt.stats.prefetches_issued == issued

    def test_demand_hit_on_prefetched_page_counts(self):
        rt = make_runtime(prefetch_degree=2)
        rt.access(10)
        rt.access(11)  # demand-hits the prefetched page
        assert rt.stats.prefetch_hits == 1
        assert not rt.page_table.lookup(11).prefetched
        assert rt.stats.t1_hits == 1  # it was a Tier-1 hit, not a miss

    def test_unused_prefetch_counted_wasted_on_eviction(self):
        rt = make_runtime(prefetch_degree=2, tier1=2, tier2=4)
        rt.access(10)  # fills tier1 with 10 + prefetched 11/12 (evicting)
        for p in (30, 40, 50):
            rt.access(p)
        assert rt.stats.prefetch_wasted > 0

    def test_prefetched_pages_evict_before_demanded_ones(self):
        rt = make_runtime(prefetch_degree=1, tier1=3, tier2=8)
        rt.access(10)  # Tier-1: 10 (ref) + 11 (prefetched, unref)
        rt.access(20)  # 20 fits; its prefetch of 21 must displace 11, not 10
        assert 10 in rt.t1_clock
        assert 20 in rt.t1_clock
        assert rt.page_table.lookup(11).location is not PageLocation.TIER1

    def test_accuracy_property(self):
        rt = make_runtime(prefetch_degree=1)
        rt.access(10)
        rt.access(11)
        assert rt.stats.prefetch_accuracy == 1.0

    def test_invariants_with_prefetching(self):
        rt = make_runtime(prefetch_degree=3, tier1=4, tier2=8)
        import random

        rng = random.Random(0)
        for _ in range(500):
            rt.access(rng.randrange(60), write=rng.random() < 0.3)
        rt.check_invariants()
        s = rt.stats
        # Conservation still holds: every SSD read is a demand miss or a
        # prefetch.
        assert s.ssd_page_reads == (s.t1_misses - s.t2_hits) + s.prefetches_issued


class TestAsyncEvictions:
    def test_async_never_increases_fault_term(self):
        import random

        def fault_term(async_evictions):
            cfg = GMTConfig(
                tier1_frames=8,
                tier2_frames=16,
                policy="tier-order",
                async_evictions=async_evictions,
                sample_target=50,
                sample_batch=10,
            )
            rt = GMTRuntime(cfg)
            rng = random.Random(1)
            for _ in range(400):
                rt.access(rng.randrange(50), write=rng.random() < 0.5)
            return rt.result().breakdown.fault_ns

        assert fault_term(True) <= fault_term(False)


class TestPredictorKnob:
    def test_invalid_predictor_rejected(self):
        with pytest.raises(ConfigError):
            GMTConfig(tier1_frames=4, tier2_frames=4, reuse_predictor="nn")

    def test_last_predictor_selected(self):
        from repro.reuse.markov import LastTierPredictor

        cfg = GMTConfig(
            tier1_frames=4,
            tier2_frames=4,
            reuse_predictor="last",
            sample_target=50,
            sample_batch=10,
        )
        rt = GMTRuntime(cfg)
        assert isinstance(rt.policy.predictor, LastTierPredictor)

    def test_heuristic_disable(self):
        from repro.workloads import make_workload

        cfg = GMTConfig(
            tier1_frames=16,
            tier2_frames=64,
            tier3_bias_enabled=False,
            sample_target=200,
            sample_batch=50,
        )
        workload = make_workload("hotspot", 160, jitter_warps=0)
        rt = GMTRuntime(cfg)
        rt.run(workload)
        assert rt.stats.forced_t2_placements == 0
