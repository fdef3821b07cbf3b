"""Tier-2 eviction orders: FIFO (section 2.2) and clock (GMT-TierOrder).

Both classes present the same small protocol the runtime's eviction
pipeline drives — ``insert`` / ``remove`` / ``touch`` / ``select_victim``
— plus :meth:`select_victim_where`, a *filtered* victim selection used by
the multi-tenant serving layer (:mod:`repro.serve`) to restrict eviction
to one tenant's pages (quota enforcement, TierBPF-style admission).

These were private to :mod:`repro.core.runtime` originally; they are
public here so quota-aware wrappers can build on them without reaching
into runtime internals.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import PageStateError
from repro.mem.clock_replacement import ClockReplacement


class Tier2Fifo:
    """Tier-2 eviction order: simple FIFO (paper section 2.2).

    "If there is no such empty slot, then we evict a page using a simple
    FIFO mechanism in Tier-2."  Pages also leave out of order — a Tier-2
    hit promotes the page to Tier-1 — so removal works anywhere.  Backed
    by a dict, whose insertion order is the FIFO order and which gives
    O(1) membership, append and deletion.
    """

    def __init__(self) -> None:
        self._order: dict[int, None] = {}

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, page: int) -> bool:
        return page in self._order

    def insert(self, page: int, referenced: bool = False) -> None:
        """Queue a page at the tail; ``referenced`` is ignored (FIFO has
        no recency)."""
        if page in self._order:
            raise PageStateError(f"page {page} already queued")
        self._order[page] = None

    def remove(self, page: int) -> None:
        """Remove ``page`` from anywhere in the queue (Tier-2 hit path)."""
        try:
            del self._order[page]
        except KeyError:
            raise PageStateError(f"page {page} not queued") from None

    def select_victim(self) -> int:
        """Remove and return the oldest queued page."""
        try:
            page = next(iter(self._order))
        except StopIteration:
            raise PageStateError("FIFO queue is empty") from None
        del self._order[page]
        return page

    def select_victim_where(self, predicate: Callable[[int], bool]) -> int | None:
        """Oldest queued page satisfying ``predicate`` (None if no match).

        Pages not matching the predicate keep their queue positions.
        """
        for page in self._order:
            if predicate(page):
                del self._order[page]
                return page
        return None

    def touch(self, page: int) -> None:
        """FIFO ignores recency."""

    def pages(self) -> list[int]:
        """Snapshot in FIFO order (oldest first)."""
        return list(self._order)


class Tier2Clock:
    """Tier-2 eviction order: clock (GMT-TierOrder, section 2.1.1)."""

    def __init__(self, capacity: int) -> None:
        self._clock = ClockReplacement(capacity)

    def __len__(self) -> int:
        return len(self._clock)

    def __contains__(self, page: int) -> bool:
        return page in self._clock

    def insert(self, page: int, referenced: bool = False) -> None:
        """Track a page; demoted pages arrive cold (``referenced=False``)."""
        self._clock.insert(page, referenced=referenced)

    def remove(self, page: int) -> None:
        self._clock.remove(page)

    def select_victim(self) -> int:
        return self._clock.select_victim()

    def select_victim_where(self, predicate: Callable[[int], bool]) -> int | None:
        """Clock victim restricted to pages satisfying ``predicate``."""
        return self._clock.select_victim_where(predicate)

    def touch(self, page: int) -> None:
        self._clock.touch(page)

    def pages(self) -> list[int]:
        """Snapshot of tracked pages in frame order."""
        return self._clock.pages()
