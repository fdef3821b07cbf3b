"""Unit tests for miss-ratio curves and analytic tier planning."""

import pytest

from repro.analysis.mrc import miss_ratio_curve
from repro.errors import TraceError
from repro.sim.latency import PlatformModel
from repro.workloads.trace import WarpColumns, Workload


class _PagesWorkload(Workload):
    name = "pages"

    def __init__(self, pages):
        super().__init__(max(pages) + 1, 0)
        self._pages = pages

    def columns(self):
        n = len(self._pages)
        return WarpColumns(self._pages, [1] * n, [False] * n)


def sweep(footprint, repeats):
    return _PagesWorkload(list(range(footprint)) * repeats)


class TestMissRatioCurve:
    def test_sweep_step_function(self):
        # 3 sweeps over 10 pages: all 20 reuses at RD 9.  LRU hits them
        # iff capacity >= 10.
        mrc = miss_ratio_curve(sweep(10, 3))
        assert mrc.total_accesses == 30
        assert mrc.cold_accesses == 10
        assert mrc.hit_ratio(9) == 0.0
        assert mrc.hit_ratio(10) == pytest.approx(20 / 30)
        assert mrc.hit_ratio(1000) == pytest.approx(20 / 30)

    def test_miss_plus_hit_is_one(self):
        mrc = miss_ratio_curve(sweep(5, 4))
        for c in (0, 1, 5, 10):
            assert mrc.hit_ratio(c) + mrc.miss_ratio(c) == pytest.approx(1.0)

    def test_zero_capacity_never_hits(self):
        mrc = miss_ratio_curve(sweep(5, 2))
        assert mrc.hits_at(0) == 0

    def test_monotone_in_capacity(self):
        mrc = miss_ratio_curve(_PagesWorkload([0, 1, 2, 0, 3, 1, 4, 0, 2, 5]))
        ratios = [mrc.miss_ratio(c) for c in range(0, 8)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_matches_simulated_lru(self):
        """MRC prediction equals an actual LRU simulation at every size."""
        import random
        from collections import OrderedDict

        rng = random.Random(5)
        pages = [rng.randrange(12) for _ in range(400)]
        mrc = miss_ratio_curve(_PagesWorkload(pages))
        for capacity in (1, 2, 4, 8, 12):
            lru: OrderedDict[int, None] = OrderedDict()
            hits = 0
            for p in pages:
                if p in lru:
                    hits += 1
                    lru.move_to_end(p)
                else:
                    if len(lru) >= capacity:
                        lru.popitem(last=False)
                    lru[p] = None
            assert mrc.hits_at(capacity) == hits, capacity

    def test_curve_points(self):
        mrc = miss_ratio_curve(sweep(4, 3))
        points = mrc.curve([2, 4])
        assert points[0][1] > points[1][1]

    def test_empty_trace_rejected(self):
        class Empty(Workload):
            name = "empty"

            def columns(self):
                return WarpColumns([], [], [])

        with pytest.raises(TraceError):
            miss_ratio_curve(Empty(footprint_pages=1))


class TestCapacityPlanning:
    def test_capacity_for_hit_ratio(self):
        mrc = miss_ratio_curve(sweep(10, 3))
        # 20/30 hits achievable, needs capacity 10.
        assert mrc.capacity_for_hit_ratio(0.5) == 10
        assert mrc.capacity_for_hit_ratio(20 / 30) == 10

    def test_unachievable_target(self):
        mrc = miss_ratio_curve(sweep(10, 3))
        assert mrc.capacity_for_hit_ratio(0.9) is None

    def test_target_validation(self):
        mrc = miss_ratio_curve(sweep(4, 2))
        with pytest.raises(ValueError):
            mrc.capacity_for_hit_ratio(1.5)

    def test_tier_hit_fractions_sum_to_one(self):
        mrc = miss_ratio_curve(sweep(10, 4))
        t1, t2, miss = mrc.tier_hit_fractions(4, 8)
        assert t1 + t2 + miss == pytest.approx(1.0)

    def test_expected_fault_ns_decreases_with_tier2(self):
        mrc = miss_ratio_curve(sweep(10, 4))
        platform = PlatformModel()
        small = mrc.expected_fault_ns(4, 2, platform)
        large = mrc.expected_fault_ns(4, 16, platform)
        assert large <= small

    def test_expected_fault_matches_hand_computation(self):
        mrc = miss_ratio_curve(sweep(10, 3))
        platform = PlatformModel()
        # Capacity 4 + 6 = 10: all reuses are Tier-2 band hits.
        t1, t2, miss = mrc.tier_hit_fractions(4, 6)
        assert t1 == 0.0
        expected = t2 * (
            platform.tier2_lookup_ns + platform.host_fetch_latency_ns
        ) + miss * platform.ssd_read_latency_ns
        assert mrc.expected_fault_ns(4, 6, platform) == pytest.approx(expected)
