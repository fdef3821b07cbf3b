"""Failure injection: corrupted state must be *detected*, not absorbed.

A simulator that silently tolerates impossible states produces plausible
garbage; these tests corrupt runtime state in targeted ways and assert
the invariant checker (or the operation itself) catches it.
"""

import pytest

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import CapacityError, PageStateError, SimulationError
from repro.mem.page import PageLocation


def make_runtime(tier1=4, tier2=8):
    cfg = GMTConfig(
        tier1_frames=tier1,
        tier2_frames=tier2,
        policy="tier-order",
        sample_target=50,
        sample_batch=10,
    )
    rt = GMTRuntime(cfg)
    for p in range(6):
        rt.access(p)
    rt.check_invariants()
    return rt


class TestInvariantDetection:
    def test_clean_runtime_passes(self):
        make_runtime()  # check_invariants inside

    def test_location_mismatch_detected(self):
        rt = make_runtime()
        page = rt.t1_clock.pages()[0]
        rt.page_table.lookup(page).location = PageLocation.TIER3
        with pytest.raises(SimulationError):
            rt.check_invariants()

    def test_cross_tier_duplication_detected(self):
        rt = make_runtime()
        t2_page = rt._t2_order.pages()[0]
        # Force the page into Tier-1's membership as well.
        rt.t1_clock.remove(rt.t1_clock.pages()[0])
        rt.t1_clock.insert(t2_page)
        with pytest.raises(SimulationError, match="duplicated across tiers"):
            rt.check_invariants()

    def test_phantom_tier2_resident_detected(self):
        rt = make_runtime()
        phantom = 999
        rt._t2_order.insert(phantom)
        # The page table says TIER3; membership says TIER2.
        with pytest.raises(SimulationError):
            rt.check_invariants()


class TestOperationLevelGuards:
    def test_double_insert_rejected_by_tier(self):
        rt = make_runtime()
        page = rt.t1_clock.pages()[0]
        with pytest.raises(PageStateError):
            rt.t1_clock.insert(page)

    def test_overfill_rejected_by_tier(self):
        rt = make_runtime(tier1=4)
        assert len(rt.t1_clock) == rt.config.tier1_frames
        with pytest.raises(CapacityError):
            rt.t1_clock.insert(12345)

    def test_clock_and_tier_stay_in_sync(self):
        rt = make_runtime()
        assert set(rt.t1_clock.pages()) == {
            s.page for s in rt.page_table if s.location is PageLocation.TIER1
        }

    def test_dirty_flag_never_set_on_nonresident(self):
        rt = make_runtime()
        for state in rt.page_table:
            if state.location is PageLocation.TIER3:
                assert not state.dirty

    def test_malformed_warp_rejected_before_any_state_change(self):
        from repro.errors import TraceError
        from repro.sim.gpu import WarpAccess

        rt = make_runtime()
        accesses = rt.stats.coalesced_accesses
        with pytest.raises(TraceError):
            rt.access_warp(WarpAccess(pages=()))
        assert rt.stats.coalesced_accesses == accesses

    def test_negative_page_rejected(self):
        rt = make_runtime()
        with pytest.raises(ValueError):
            rt.access(-1)


class TestStatsConsistencyAfterLongRuns:
    @pytest.mark.parametrize("policy", ["tier-order", "random", "reuse", "dueling"])
    def test_ledgers_balance(self, policy):
        import random

        cfg = GMTConfig(
            tier1_frames=8,
            tier2_frames=16,
            policy=policy,
            sample_target=100,
            sample_batch=20,
        )
        rt = GMTRuntime(cfg)
        rng = random.Random(11)
        for _ in range(2000):
            rt.access(rng.randrange(80), write=rng.random() < 0.4)
        rt.check_invariants()
        s = rt.stats
        assert s.t1_hits + s.t1_misses == s.coalesced_accesses
        assert s.t1_misses == s.t2_hits + s.ssd_page_reads
        # Every page currently in Tier-2 was placed and not yet fetched
        # back or evicted out.
        assert len(rt._t2_order) == s.t2_placements - s.t2_fetches - s.t2_evictions
