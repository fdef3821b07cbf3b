"""Clock (second-chance) replacement, the Tier-1 victim selector.

The paper (section 2, "What to evict from GPU memory?") uses "the
traditional clock-based replacement algorithm [37] (used in [40] as well),
that offers an effective trade-off between approximating LRU and
implementation efficiency".  GMT-TierOrder additionally runs a second clock
instance over Tier-2 (section 2.1.1), whose demoted pages the runtime
inserts cold (``referenced=False``).

The implementation keeps a circular array of frames with one reference bit
per frame.  ``advance()`` sweeps the hand: a set bit is cleared (second
chance), a clear bit yields the victim.  Victim selection is O(frames) in
the worst case but amortised O(1), exactly like the real algorithm.
"""

from __future__ import annotations

from repro.errors import CapacityError, PageStateError


class ClockReplacement:
    """Clock replacement over a fixed number of frames.

    This structure tracks *membership and recency*, and its membership is
    the tier's: the runtime keeps no other record of which pages a tier
    holds, and tests fullness as ``len()`` against the configured frames.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise CapacityError(f"negative clock capacity {capacity}")
        self.capacity = capacity
        self._pages: list[int | None] = [None] * capacity
        self._refbits: list[bool] = [False] * capacity
        self._frame_of: dict[int, int] = {}
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._hand = 0

    def __len__(self) -> int:
        return len(self._frame_of)

    def __contains__(self, page: int) -> bool:
        return page in self._frame_of

    @property
    def full(self) -> bool:
        return not self._free

    def insert(self, page: int, referenced: bool = True) -> None:
        """Install ``page`` in a free frame (reference bit set by default,
        since insertion is itself an access)."""
        if page in self._frame_of:
            raise PageStateError(f"page {page} already tracked by clock")
        if not self._free:
            raise CapacityError("clock is full; call evict() first")
        frame = self._free.pop()
        self._pages[frame] = page
        self._refbits[frame] = referenced
        self._frame_of[page] = frame

    def touch(self, page: int) -> None:
        """Set the reference bit for ``page`` (called on every Tier hit)."""
        try:
            frame = self._frame_of[page]
        except KeyError:
            raise PageStateError(f"page {page} not tracked by clock") from None
        self._refbits[frame] = True

    def remove(self, page: int) -> None:
        """Drop ``page`` from the clock (promotion or external eviction)."""
        try:
            frame = self._frame_of.pop(page)
        except KeyError:
            raise PageStateError(f"page {page} not tracked by clock") from None
        self._pages[frame] = None
        self._refbits[frame] = False
        self._free.append(frame)

    def select_victim(self) -> int:
        """Sweep the hand and return (and remove) the next victim page.

        Raises:
            PageStateError: if the clock tracks no pages.
        """
        if not self._frame_of:
            raise PageStateError("clock is empty; nothing to evict")
        while True:
            page = self._pages[self._hand]
            if page is None:
                self._hand = (self._hand + 1) % self.capacity
                continue
            if self._refbits[self._hand]:
                self._refbits[self._hand] = False
                self._hand = (self._hand + 1) % self.capacity
                continue
            self._hand = (self._hand + 1) % self.capacity
            self.remove(page)
            return page

    def select_victim_where(self, predicate) -> int | None:
        """Filtered clock sweep: evict the next victim satisfying ``predicate``.

        Pages failing the predicate are skipped entirely — their reference
        bits are left untouched, so a tenant-restricted eviction (see
        :mod:`repro.serve`) does not erode other tenants' recency state.
        Returns ``None`` when no tracked page matches.
        """
        if not any(predicate(page) for page in self._frame_of):
            return None
        # Two sweeps bound the scan: the first clears matching pages'
        # reference bits, the second must then find a clear one.
        for _ in range(2 * self.capacity + 1):
            page = self._pages[self._hand]
            if page is None or not predicate(page):
                self._hand = (self._hand + 1) % self.capacity
                continue
            if self._refbits[self._hand]:
                self._refbits[self._hand] = False
                self._hand = (self._hand + 1) % self.capacity
                continue
            self._hand = (self._hand + 1) % self.capacity
            self.remove(page)
            return page
        raise PageStateError("filtered clock sweep failed to converge")  # pragma: no cover

    def pages(self) -> list[int]:
        """Snapshot of tracked pages in frame order (test helper)."""
        return [p for p in self._pages if p is not None]
