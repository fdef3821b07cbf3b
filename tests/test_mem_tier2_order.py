"""Unit tests for the Tier-2 eviction orders: the FIFO
(repro.mem.tier2_order) and the clock, which at Tier-2 is a plain
ClockReplacement fed cold inserts."""

import pytest

from repro.errors import PageStateError
from repro.mem import ClockReplacement, Tier2Fifo


class TestTier2Fifo:
    def test_insert_len_contains(self):
        order = Tier2Fifo()
        order.insert(1)
        order.insert(2)
        assert len(order) == 2
        assert 1 in order and 2 in order and 3 not in order

    def test_fifo_victim_order(self):
        order = Tier2Fifo()
        for page in (10, 20, 30):
            order.insert(page)
        assert order.select_victim() == 10
        assert order.select_victim() == 20
        assert order.select_victim() == 30

    def test_touch_ignores_recency(self):
        order = Tier2Fifo()
        order.insert(1)
        order.insert(2)
        order.touch(1)  # FIFO: does not move 1 to the back
        assert order.select_victim() == 1

    def test_remove(self):
        order = Tier2Fifo()
        order.insert(1)
        order.insert(2)
        order.remove(1)
        assert 1 not in order
        assert order.select_victim() == 2

    def test_pages_snapshot_oldest_first(self):
        order = Tier2Fifo()
        for page in (3, 1, 2):
            order.insert(page)
        assert order.pages() == [3, 1, 2]

    def test_select_victim_where_oldest_match(self):
        order = Tier2Fifo()
        for page in (10, 21, 30, 41):
            order.insert(page)
        victim = order.select_victim_where(lambda p: p % 2 == 1)
        assert victim == 21
        assert 21 not in order
        # Non-matching pages kept their queue positions.
        assert order.pages() == [10, 30, 41]
        assert order.select_victim() == 10

    def test_select_victim_where_no_match(self):
        order = Tier2Fifo()
        order.insert(2)
        assert order.select_victim_where(lambda p: p > 100) is None
        assert len(order) == 1


class TestTier2Clock:
    """The runtime demotes pages into the Tier-2 clock cold
    (``referenced=False``), as these tests insert them."""

    def test_insert_len_contains(self):
        order = ClockReplacement(capacity=4)
        order.insert(1, referenced=False)
        order.insert(2, referenced=False)
        assert len(order) == 2
        assert 1 in order and 3 not in order

    def test_inserted_without_reference_bit(self):
        # Tier-2 entries start unreferenced: the first sweep evicts the
        # first inserted page without a second-chance pass.
        order = ClockReplacement(capacity=4)
        order.insert(1, referenced=False)
        order.insert(2, referenced=False)
        assert order.select_victim() == 1

    def test_touch_grants_second_chance(self):
        order = ClockReplacement(capacity=4)
        order.insert(1, referenced=False)
        order.insert(2, referenced=False)
        order.touch(1)
        assert order.select_victim() == 2

    def test_remove(self):
        order = ClockReplacement(capacity=2)
        order.insert(1, referenced=False)
        order.remove(1)
        assert 1 not in order
        order.insert(1, referenced=False)  # frame reusable

    def test_select_victim_where(self):
        order = ClockReplacement(capacity=4)
        for page in (10, 21, 30):
            order.insert(page, referenced=False)
        assert order.select_victim_where(lambda p: p % 2 == 1) == 21
        assert 21 not in order
        assert order.select_victim_where(lambda p: p % 2 == 1) is None
        assert len(order) == 2

    def test_select_victim_empty_raises(self):
        with pytest.raises(PageStateError):
            Tier2Fifo().select_victim()


class TestRuntimeUsesPublicOrders:
    def test_runtime_imports_the_public_classes(self):
        # The orders used by the eviction pipeline ARE the public classes
        # (they were private to core.runtime before the serving layer).
        from repro.core import runtime as core_runtime

        assert core_runtime.Tier2Fifo is Tier2Fifo
