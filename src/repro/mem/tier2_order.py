"""Tier-2 FIFO eviction order (section 2.2).

:class:`Tier2Fifo` presents the small protocol the runtime's eviction
pipeline drives — ``insert`` / ``remove`` / ``touch`` / ``select_victim``
— plus :meth:`~Tier2Fifo.select_victim_where`, a *filtered* victim
selection used by the multi-tenant serving layer (:mod:`repro.serve`) to
restrict eviction to one tenant's pages (quota enforcement,
TierBPF-style admission).  The Tier-2 clock of GMT-TierOrder is the
plain :class:`~repro.mem.clock_replacement.ClockReplacement`.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import PageStateError


class Tier2Fifo:
    """Tier-2 eviction order: simple FIFO (paper section 2.2).

    "If there is no such empty slot, then we evict a page using a simple
    FIFO mechanism in Tier-2."  Pages also leave out of order — a Tier-2
    hit promotes the page to Tier-1 — so removal works anywhere.  Backed
    by a dict, whose insertion order is the FIFO order and which gives
    O(1) membership, append and deletion.  The queue itself is unbounded:
    the runtime evicts before it places once ``len()`` reaches the
    configured Tier-2 frames, and audits check that bound.
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

