"""Unit tests for the clock (second-chance) replacement algorithm."""

import pytest

from repro.errors import CapacityError, PageStateError
from repro.mem.clock_replacement import ClockReplacement


class TestClockBasics:
    def test_insert_and_len(self):
        c = ClockReplacement(4)
        c.insert(1)
        c.insert(2)
        assert len(c) == 2
        assert 1 in c and 2 in c

    def test_full(self):
        c = ClockReplacement(2)
        c.insert(1)
        assert not c.full
        c.insert(2)
        assert c.full

    def test_insert_when_full_raises(self):
        c = ClockReplacement(1)
        c.insert(1)
        with pytest.raises(CapacityError):
            c.insert(2)

    def test_duplicate_insert_raises(self):
        c = ClockReplacement(2)
        c.insert(1)
        with pytest.raises(PageStateError):
            c.insert(1)

    def test_touch_unknown_raises(self):
        with pytest.raises(PageStateError):
            ClockReplacement(2).touch(9)

    def test_remove(self):
        c = ClockReplacement(2)
        c.insert(1)
        c.remove(1)
        assert 1 not in c
        c.insert(1)  # frame reusable

    def test_remove_unknown_raises(self):
        with pytest.raises(PageStateError):
            ClockReplacement(2).remove(3)

    def test_evict_empty_raises(self):
        with pytest.raises(PageStateError):
            ClockReplacement(2).select_victim()


class TestClockSecondChance:
    def test_untouched_pages_evict_in_insertion_order(self):
        c = ClockReplacement(3)
        for p in (1, 2, 3):
            c.insert(p, referenced=False)
        assert c.select_victim() == 1
        assert c.select_victim() == 2
        assert c.select_victim() == 3

    def test_referenced_page_gets_second_chance(self):
        c = ClockReplacement(3)
        for p in (1, 2, 3):
            c.insert(p, referenced=False)
        c.touch(1)
        # 1's bit is set: the hand clears it and moves on, evicting 2.
        assert c.select_victim() == 2

    def test_insertion_sets_reference_bit_by_default(self):
        c = ClockReplacement(2)
        c.insert(1)
        c.insert(2)
        # Both referenced: hand strips both bits, then evicts 1 (oldest).
        assert c.select_victim() == 1

    def test_victim_removed_after_eviction(self):
        c = ClockReplacement(2)
        c.insert(1, referenced=False)
        c.insert(2, referenced=False)
        v = c.select_victim()
        assert v not in c
        assert len(c) == 1

    def test_repeatedly_touched_page_survives(self):
        c = ClockReplacement(2)
        c.insert(1, referenced=False)
        c.insert(2, referenced=False)
        survivors = []
        for p in range(3, 10):
            c.touch(1)
            victim = c.select_victim()
            survivors.append(victim)
            c.insert(p, referenced=False)
        assert 1 not in survivors

    def test_pages_snapshot(self):
        c = ClockReplacement(3)
        c.insert(1)
        c.insert(2)
        assert sorted(c.pages()) == [1, 2]

    def test_hand_wraps_around(self):
        c = ClockReplacement(2)
        c.insert(1, referenced=False)
        c.insert(2, referenced=False)
        c.select_victim()
        c.insert(3, referenced=False)
        # Sequence of evictions remains well-defined after wrap.
        assert c.select_victim() in (2, 3)


class TestSelectVictimWhere:
    """Filtered victim selection (quota-restricted eviction)."""

    def _refbit(self, c, page):
        return c._refbits[c._frame_of[page]]

    def test_no_match_returns_none(self):
        c = ClockReplacement(4)
        c.insert(1, referenced=False)
        c.insert(2, referenced=False)
        assert c.select_victim_where(lambda p: p > 100) is None
        assert len(c) == 2

    def test_empty_returns_none(self):
        assert ClockReplacement(2).select_victim_where(lambda p: True) is None

    def test_picks_only_matching_page(self):
        c = ClockReplacement(4)
        for page in (10, 21, 30):
            c.insert(page, referenced=False)
        victim = c.select_victim_where(lambda p: p % 2 == 1)
        assert victim == 21
        assert 21 not in c
        assert 10 in c and 30 in c

    def test_preserves_refbits_of_non_matching_pages(self):
        c = ClockReplacement(4)
        c.insert(10, referenced=True)
        c.insert(21, referenced=False)
        c.insert(30, referenced=True)
        assert c.select_victim_where(lambda p: p % 2 == 1) == 21
        # A plain sweep would have consumed 10's and 30's second chances;
        # the filtered sweep must not touch them.
        assert self._refbit(c, 10)
        assert self._refbit(c, 30)

    def test_matching_pages_keep_second_chance_semantics(self):
        c = ClockReplacement(4)
        c.insert(11, referenced=True)
        c.insert(21, referenced=False)
        # 11 is referenced: the sweep clears its bit and takes 21 first.
        assert c.select_victim_where(lambda p: p % 2 == 1) == 21
        assert not self._refbit(c, 11)
        assert c.select_victim_where(lambda p: p % 2 == 1) == 11

    def test_single_referenced_match_evicted_after_wrap(self):
        c = ClockReplacement(4)
        c.insert(10, referenced=True)
        c.insert(21, referenced=True)
        # Only 21 matches; first visit clears its bit, wrap evicts it.
        assert c.select_victim_where(lambda p: p % 2 == 1) == 21
        assert self._refbit(c, 10)
