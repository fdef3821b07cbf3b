"""Unit tests for the virtual-timestamp clock (VTD tracking)."""

import pytest

from repro.mem.page import PageState
from repro.reuse.vtd import VirtualTimestampClock


class TestVirtualTimestampClock:
    def test_starts_at_zero(self):
        assert VirtualTimestampClock().now == 0

    def test_tick_advances(self):
        c = VirtualTimestampClock()
        assert c.tick() == 1
        assert c.tick() == 2
        assert c.now == 2

    def test_first_access_has_no_vtd(self):
        c = VirtualTimestampClock()
        s = PageState(page=1)
        assert c.observe_access(s) is None
        assert s.last_access_ts == 1

    def test_vtd_counts_intervening_accesses(self):
        c = VirtualTimestampClock()
        a, b = PageState(page=1), PageState(page=2)
        c.observe_access(a)  # t=1
        c.observe_access(b)  # t=2
        c.observe_access(b)  # t=3
        vtd = c.observe_access(a)  # t=4
        assert vtd == 3  # non-unique distance: b counted twice

    def test_back_to_back_vtd_is_one(self):
        c = VirtualTimestampClock()
        s = PageState(page=1)
        c.observe_access(s)
        assert c.observe_access(s) == 1

    def test_remaining_vtd_since(self):
        c = VirtualTimestampClock()
        s = PageState(page=1)
        c.observe_access(s)
        stamp = c.now
        for _ in range(5):
            c.tick()
        assert c.remaining_vtd_since(stamp) == 5

    def test_remaining_vtd_future_timestamp_rejected(self):
        c = VirtualTimestampClock()
        with pytest.raises(ValueError):
            c.remaining_vtd_since(10)

    def test_vtd_vs_rd_relation(self):
        # VTD (non-unique) is always >= RD (unique) + ... for the same
        # access; here: a b b a -> VTD 3, RD would be 1.
        c = VirtualTimestampClock()
        a, b = PageState(page=1), PageState(page=2)
        c.observe_access(a)
        c.observe_access(b)
        c.observe_access(b)
        assert c.observe_access(a) == 3
