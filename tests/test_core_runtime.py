"""Unit tests for the GMT runtime's access and eviction pipelines."""

import pytest

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.mem.page import PageLocation
from repro.sim.gpu import WarpAccess, warp_of
from tests.conftest import random_trace, sweep_trace


def make_runtime(policy="tier-order", tier1=4, tier2=8, **kwargs) -> GMTRuntime:
    cfg = GMTConfig(
        tier1_frames=tier1,
        tier2_frames=tier2,
        policy=policy,
        sample_target=50,
        sample_batch=10,
        tier3_bias_window=8,
        **kwargs,
    )
    return GMTRuntime(cfg)


class TestHitPath:
    def test_cold_miss_then_hit(self):
        rt = make_runtime()
        rt.access(1)
        assert rt.stats.t1_misses == 1
        rt.access(1)
        assert rt.stats.t1_hits == 1
        assert rt.page_table.lookup(1).location is PageLocation.TIER1

    def test_cold_miss_reads_ssd(self):
        rt = make_runtime()
        rt.access(1)
        assert rt.stats.ssd_page_reads == 1
        assert rt.ssd.reads == 1

    def test_write_dirties_page(self):
        rt = make_runtime()
        rt.access(1, write=True)
        assert rt.page_table.lookup(1).dirty

    def test_hit_does_not_touch_ssd(self):
        rt = make_runtime()
        rt.access(1)
        reads = rt.ssd.reads
        rt.access(1)
        assert rt.ssd.reads == reads


class TestEvictionPipeline:
    def test_tier1_never_exceeds_capacity(self):
        rt = make_runtime(tier1=4)
        for p in range(20):
            rt.access(p)
        assert len(rt.t1_clock) <= 4
        rt.check_invariants()

    def test_tier_order_places_evictions_in_tier2(self):
        rt = make_runtime("tier-order", tier1=2, tier2=8)
        for p in range(5):
            rt.access(p)
        assert rt.stats.t1_evictions == 3
        assert rt.stats.t2_placements == 3
        assert len(rt._t2_order) == 3

    def test_tier2_hit_promotes_and_frees_slot(self):
        rt = make_runtime("tier-order", tier1=2, tier2=8)
        for p in range(4):
            rt.access(p)
        # Page 0 was evicted into Tier-2; touch it again.
        assert 0 in rt._t2_order
        rt.access(0)
        assert 0 in rt.t1_clock
        assert 0 not in rt._t2_order
        assert rt.stats.t2_hits == 1
        assert rt.stats.t2_fetches == 1
        rt.check_invariants()

    def test_wasteful_lookup_counted(self):
        rt = make_runtime("tier-order", tier1=2, tier2=8)
        rt.access(1)
        assert rt.stats.t2_lookups == 1
        assert rt.stats.t2_wasteful_lookups == 1

    def test_tier2_full_triggers_fifo_eviction(self):
        rt = make_runtime("random", tier1=2, tier2=2, seed=1)
        # Force many placements; Tier-2 of 2 frames must evict eventually.
        for p in range(30):
            rt.access(p)
        assert len(rt._t2_order) <= 2
        rt.check_invariants()

    def test_dirty_eviction_writes_back(self):
        rt = make_runtime("tier-order", tier1=1, tier2=0)
        rt.access(1, write=True)
        rt.access(2)  # evicts dirty page 1 -> SSD write
        assert rt.stats.ssd_page_writes == 1
        assert not rt.page_table.lookup(1).dirty

    def test_clean_eviction_discards_for_free(self):
        rt = make_runtime("tier-order", tier1=1, tier2=0)
        rt.access(1)
        rt.access(2)
        assert rt.stats.ssd_page_writes == 0
        assert rt.stats.clean_discards == 1

    def test_no_duplication_across_tiers(self):
        rt = make_runtime("tier-order", tier1=3, tier2=6)
        for warp in random_trace(300, footprint=20, seed=3):
            rt.access_warp(warp)
        rt.check_invariants()

    def test_dirty_bit_survives_tier2_round_trip(self):
        rt = make_runtime("tier-order", tier1=1, tier2=4)
        rt.access(1, write=True)
        rt.access(2)  # 1 -> Tier-2, still dirty
        assert rt.page_table.lookup(1).dirty
        rt.access(1)  # back to Tier-1
        assert rt.page_table.lookup(1).dirty
        assert rt.stats.ssd_page_writes == 0

    def test_refetch_from_ssd_is_clean(self):
        rt = make_runtime("tier-order", tier1=1, tier2=0)
        rt.access(1, write=True)
        rt.access(2)  # writeback of 1
        rt.access(1)  # fetched fresh from SSD
        assert not rt.page_table.lookup(1).dirty


class TestBamDegeneration:
    def test_zero_tier2_skips_lookups(self):
        rt = make_runtime("tier-order", tier1=2, tier2=0)
        for p in range(10):
            rt.access(p)
        assert rt.stats.t2_lookups == 0
        assert rt.stats.t2_placements == 0


class TestWarpPath:
    def test_warp_coalescing(self):
        rt = make_runtime()
        rt.access_warp(WarpAccess(pages=(1, 1, 2)))
        assert rt.stats.coalesced_accesses == 2
        assert rt.stats.warp_instructions == 1

    def test_run_returns_result(self):
        rt = make_runtime()
        result = rt.run([warp_of([1, 2]), warp_of([1])])
        assert result.stats.coalesced_accesses == 3
        assert result.elapsed_ns > 0
        assert result.runtime_name.startswith("GMT-")


class TestRetention:
    def test_short_reuse_retention_bounded(self):
        # With a reuse policy whose predictions are all SHORT, the runtime
        # must still make progress via the retry bound.
        rt = make_runtime("reuse", tier1=2, tier2=4, max_clock_retries=2)
        for warp in sweep_trace(4, repeats=30):
            rt.access_warp(warp)
        rt.check_invariants()
        assert rt.stats.t1_evictions > 0

    def test_elapsed_time_monotonic_in_accesses(self):
        rt = make_runtime()
        rt.access(1)
        t1 = rt.result().elapsed_ns
        for p in range(2, 12):
            rt.access(p)
        assert rt.result().elapsed_ns > t1


class TestVirtualTime:
    def test_vts_counts_coalesced_accesses(self):
        rt = make_runtime()
        rt.access_warp(WarpAccess(pages=(1, 1, 2)))
        assert rt.vts.now == 2

    def test_timestamps_recorded(self):
        rt = make_runtime()
        rt.access(5)
        assert rt.page_table.lookup(5).last_access_ts == 1


class TestSpeedupGuards:
    def test_speedup_over_zero_baseline_raises(self):
        from repro.errors import SimulationError

        rt = make_runtime()
        rt.access(1)
        result = rt.result()
        empty = make_runtime().result()  # no accesses: zero elapsed time
        assert empty.elapsed_ns == 0
        with pytest.raises(SimulationError, match="baseline"):
            result.speedup_over(empty)

    def test_speedup_with_zero_self_raises(self):
        from repro.errors import SimulationError

        rt = make_runtime()
        rt.access(1)
        result = rt.result()
        empty = make_runtime().result()
        with pytest.raises(SimulationError):
            empty.speedup_over(result)
