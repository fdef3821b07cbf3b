"""Unit tests for the Tier-2 FIFO queue."""

import pytest

from repro.errors import PageStateError
from repro.mem.tier2_order import Tier2Fifo


class TestFifoOrder:
    def test_insert_and_len(self):
        q = Tier2Fifo()
        q.insert(1)
        q.insert(2)
        assert len(q) == 2
        assert 1 in q and 2 in q

    def test_fifo_order(self):
        q = Tier2Fifo()
        for p in (3, 1, 2):
            q.insert(p)
        assert q.select_victim() == 3
        assert q.select_victim() == 1
        assert q.select_victim() == 2

    def test_duplicate_insert_raises(self):
        q = Tier2Fifo()
        q.insert(1)
        with pytest.raises(PageStateError):
            q.insert(1)

    def test_select_victim_empty_raises(self):
        with pytest.raises(PageStateError):
            Tier2Fifo().select_victim()

    def test_remove_from_middle(self):
        q = Tier2Fifo()
        for p in (1, 2, 3):
            q.insert(p)
        q.remove(2)
        assert 2 not in q
        assert q.pages() == [1, 3]

    def test_remove_absent_raises(self):
        with pytest.raises(PageStateError):
            Tier2Fifo().remove(7)

    def test_reinsert_moves_to_tail(self):
        # A page promoted to Tier-1 and evicted again re-enters at the tail.
        q = Tier2Fifo()
        for p in (1, 2):
            q.insert(p)
        q.remove(1)
        q.insert(1)
        assert q.pages() == [2, 1]
        assert q.select_victim() == 2
