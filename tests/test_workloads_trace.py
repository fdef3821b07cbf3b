"""Unit tests for the workload trace framework."""

import pytest

from repro.errors import TraceError
from repro.sim.gpu import WarpAccess, warp_of
from repro.workloads.trace import (
    JitteredWorkload,
    WarpColumns,
    Workload,
    stream_warps,
)


class _ListWorkload(Workload):
    name = "list"

    def __init__(self, warps, footprint_pages=10, seed=0):
        super().__init__(footprint_pages, seed)
        self._warps = warps

    def columns(self):
        return WarpColumns.from_warps(self._warps)


class TestStreamWarps:
    def test_groups_pages(self):
        warps = list(stream_warps(range(5), pages_per_warp=2))
        assert [w.pages for w in warps] == [(0, 1), (2, 3), (4,)]

    def test_write_flag_propagates(self):
        warps = list(stream_warps(range(4), write=True, pages_per_warp=2))
        assert all(w.write for w in warps)

    def test_invalid_group_size(self):
        with pytest.raises(TraceError):
            list(stream_warps(range(4), pages_per_warp=0))
        with pytest.raises(TraceError):
            list(stream_warps(range(4), pages_per_warp=64))

    def test_empty_input(self):
        assert list(stream_warps([])) == []


class TestWorkloadBase:
    def test_reiterable(self):
        w = _ListWorkload([warp_of([1]), warp_of([2])])
        assert list(w) == list(w)

    def test_coalesced_pages(self):
        w = _ListWorkload([WarpAccess(pages=(1, 1, 2)), warp_of([3])])
        assert list(w.coalesced_pages()) == [1, 2, 3]

    def test_invalid_footprint(self):
        with pytest.raises(TraceError):
            _ListWorkload([], footprint_pages=0)


class TestJitteredWorkload:
    def test_preserves_multiset_of_warps(self):
        warps = [warp_of([p]) for p in range(100)]
        jittered = JitteredWorkload(_ListWorkload(warps), window=8)
        out = list(jittered)
        assert sorted(w.pages for w in out) == sorted(w.pages for w in warps)

    def test_early_emission_bounded_by_window(self):
        # A warp cannot be emitted before (window - 1) of its predecessors
        # are buffered; late emission has a geometric tail (like a real
        # scheduler), so only the forward bound is strict.
        warps = [warp_of([p]) for p in range(200)]
        jittered = JitteredWorkload(_ListWorkload(warps), window=10)
        for pos, warp in enumerate(jittered):
            assert warp.pages[0] <= pos + 10

    def test_reordering_actually_happens(self):
        warps = [warp_of([p]) for p in range(200)]
        out = list(JitteredWorkload(_ListWorkload(warps), window=10))
        assert [w.pages[0] for w in out] != list(range(200))

    def test_deterministic(self):
        warps = [warp_of([p]) for p in range(50)]
        a = list(JitteredWorkload(_ListWorkload(warps), window=5))
        b = list(JitteredWorkload(_ListWorkload(warps), window=5))
        assert a == b

    def test_window_one_changes_little(self):
        warps = [warp_of([p]) for p in range(20)]
        out = list(JitteredWorkload(_ListWorkload(warps), window=1))
        assert len(out) == 20

    def test_delegates_metadata(self):
        inner = _ListWorkload([warp_of([1])], footprint_pages=42)
        jittered = JitteredWorkload(inner, window=4)
        assert jittered.footprint_pages == 42
        assert jittered.name == "list"

    def test_invalid_window(self):
        with pytest.raises(TraceError):
            JitteredWorkload(_ListWorkload([]), window=0)

