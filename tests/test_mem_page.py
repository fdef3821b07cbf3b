"""Unit tests for repro.mem.page and repro.mem.page_table."""

import pytest

from repro.errors import PageStateError
from repro.mem.page import PageLocation, PageState
from repro.mem.page_table import PageTable


class TestPageState:
    def test_defaults(self):
        s = PageState(page=7)
        assert s.location is PageLocation.TIER3
        assert not s.dirty
        assert s.last_access_ts is None
        assert s.last_eviction_ts is None
        assert not s.prefetched
        assert s.policy_state == {}

    def test_resident(self):
        s = PageState(page=1, location=PageLocation.TIER1)
        assert s.resident
        s.location = PageLocation.TIER2
        assert s.resident
        s.location = PageLocation.TIER3
        assert not s.resident

    def test_mark_dirty_requires_residency(self):
        s = PageState(page=1)
        with pytest.raises(PageStateError):
            s.mark_dirty()

    def test_mark_dirty_and_writeback(self):
        s = PageState(page=1, location=PageLocation.TIER1)
        s.mark_dirty()
        assert s.dirty
        s.writeback()
        assert not s.dirty

    def test_policy_state_is_per_instance(self):
        a, b = PageState(page=1), PageState(page=2)
        a.policy_state["x"] = 1
        assert "x" not in b.policy_state


class TestPageTable:
    def test_lookup_creates_entry(self):
        pt = PageTable()
        assert 3 not in pt
        state = pt.lookup(3)
        assert state.page == 3
        assert 3 in pt
        assert len(pt) == 1

    def test_lookup_is_idempotent(self):
        pt = PageTable()
        assert pt.lookup(5) is pt.lookup(5)

    def test_peek_does_not_create(self):
        pt = PageTable()
        assert pt.peek(9) is None
        assert 9 not in pt

    def test_negative_page_rejected(self):
        with pytest.raises(ValueError):
            PageTable().lookup(-1)

    def test_resident_in(self):
        pt = PageTable()
        pt.lookup(1).location = PageLocation.TIER1
        pt.lookup(2).location = PageLocation.TIER2
        pt.lookup(3)
        assert pt.resident_in(PageLocation.TIER1) == [1]
        assert pt.resident_in(PageLocation.TIER2) == [2]
        assert pt.count_in(PageLocation.TIER3) == 1

    def test_iteration(self):
        pt = PageTable()
        for p in range(4):
            pt.lookup(p)
        assert sorted(s.page for s in pt) == [0, 1, 2, 3]
