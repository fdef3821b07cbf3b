"""Page table: page id -> :class:`~repro.mem.page.PageState`.

The table is lazily populated: looking up a page that has never been seen
creates a fresh TIER3 (on-SSD) entry, matching the BaM/GMT model in which
the whole dataset starts on the SSD.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.mem.page import PageLocation, PageState


class PageTable:
    """Sparse mapping from page id to plain :class:`PageState` rows."""

    def __init__(self) -> None:
        self._entries: dict[int, PageState] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def __iter__(self) -> Iterator[PageState]:
        return iter(self._entries.values())

    def lookup(self, page: int) -> PageState:
        """Return the state for ``page``, creating a TIER3 entry if new."""
        if page < 0:
            raise ValueError(f"page ids must be non-negative, got {page}")
        state = self._entries.get(page)
        if state is None:
            state = PageState(page)
            self._entries[page] = state
        return state

    def peek(self, page: int) -> PageState | None:
        """Return the state for ``page`` without creating an entry."""
        return self._entries.get(page)

    def resident_in(self, location: PageLocation) -> list[int]:
        """All page ids currently resident in ``location`` (slow; for tests
        and invariant checks, not the hot path)."""
        return [s.page for s in self._entries.values() if s.location is location]

    def count_in(self, location: PageLocation) -> int:
        """Number of pages resident in ``location`` (slow; test helper)."""
        return sum(1 for s in self._entries.values() if s.location is location)
