"""A tier's residency record: its eviction structure, sized by the config.

The runtime keeps no separate set of resident pages.  Tier-1's membership
is ``t1_clock`` and Tier-2's is ``_t2_order``; ``GMTConfig`` holds the
frame counts the runtime tests fullness against.
"""

import pytest

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import CapacityError, ConfigError, PageStateError
from repro.mem.clock_replacement import ClockReplacement
from repro.policyzoo.registry import EVICTION_POLICY_NAMES


def make_runtime(tier1=2, tier2=4, tier1_eviction="clock"):
    # Tier-order places every Tier-1 victim in Tier-2 while it has room.
    cfg = GMTConfig(
        tier1_frames=tier1,
        tier2_frames=tier2,
        policy="tier-order",
        tier1_eviction=tier1_eviction,
    )
    return GMTRuntime(cfg)


class TestTier:
    def test_empty(self):
        rt = make_runtime()
        assert len(rt.t1_clock) == 0
        assert len(rt._t2_order) == 0
        assert not rt._tier1_needs_eviction()

    def test_insert_and_contains(self):
        rt = make_runtime()
        rt.access(10)
        assert 10 in rt.t1_clock
        assert 11 not in rt.t1_clock
        assert len(rt.t1_clock) == 1

    def test_insert_to_capacity(self):
        # The runtime's fullness test is the only bound on an unbounded
        # structure (a FIFO at Tier-1), so it must fire at exactly the
        # configured frames whatever the structure.
        for name in EVICTION_POLICY_NAMES:
            rt = make_runtime(tier1=2, tier1_eviction=name)
            rt.access(1)
            rt.access(2)
            assert rt._tier1_needs_eviction(), name
            assert rt.stats.t1_evictions == 0, name
            rt.access(3)
            assert len(rt.t1_clock) == 2, name
            assert rt.stats.t1_evictions == 1, name

    def test_insert_beyond_capacity_raises(self):
        rt = make_runtime(tier1=1)
        rt.access(1)
        with pytest.raises(CapacityError):
            rt.t1_clock.insert(2)

    def test_duplicate_insert_raises(self):
        rt = make_runtime()
        rt.access(1)
        with pytest.raises(PageStateError):
            rt.t1_clock.insert(1)

    def test_remove(self):
        rt = make_runtime(tier1=1)
        rt.access(1)
        rt.access(2)  # evicts page 1 into Tier-2
        assert 1 not in rt.t1_clock
        assert 1 in rt._t2_order
        assert len(rt.t1_clock) == 1

    def test_remove_absent_raises(self):
        rt = make_runtime()
        with pytest.raises(PageStateError):
            rt.t1_clock.remove(5)
        with pytest.raises(PageStateError):
            rt._t2_order.remove(5)

    def test_zero_capacity_models_missing_tier(self):
        rt = make_runtime(tier1=1, tier2=0)
        for page in range(4):
            rt.access(page)
        assert len(rt._t2_order) == 0
        assert rt.stats.t2_lookups == 0
        assert rt.stats.t2_placements == 0
        assert rt.obs_labels()["tiers"] == "2"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            GMTConfig(tier1_frames=4, tier2_frames=-1)
        with pytest.raises(CapacityError):
            ClockReplacement(-1)

    def test_iteration(self):
        rt = make_runtime(tier1=3)
        for page in (5, 6):
            rt.access(page)
        assert sorted(rt.t1_clock.pages()) == [5, 6]

    def test_reinsert_after_remove(self):
        rt = make_runtime(tier1=1)
        rt.access(1)
        rt.access(2)
        rt.access(1)  # promoted back from Tier-2
        assert 1 in rt.t1_clock
        assert 1 not in rt._t2_order
        rt.check_invariants()
