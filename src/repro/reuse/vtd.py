"""Virtual Timestamp Distance (VTD) tracking.

Paper section 2.1.3: "we use the Virtual Timestamp Distance (VTD, also
known as non-unique reuse distance) as a proxy for reuse distances.  VTD of
a page at any time is the number of (possibly non-unique) accesses since
its last access.  We maintain a counter that is updated on each coalesced
access (across threads of a warp).  When a page is accessed, we timestamp
that page with this counter's value."

The clock here is the single global counter; per-page timestamps live in
:class:`~repro.mem.page.PageState.last_access_ts` so every runtime shares
one source of truth.
"""

from __future__ import annotations

from repro.mem.page import PageState


class VirtualTimestampClock:
    """Global coalesced-access counter plus the VTD arithmetic around it."""

    def __init__(self) -> None:
        self._now = 0

    @property
    def now(self) -> int:
        """Current virtual time (number of coalesced accesses so far)."""
        return self._now

    def tick(self) -> int:
        """Advance virtual time by one coalesced access; returns new time."""
        self._now += 1
        return self._now

    def advance(self, count: int) -> None:
        """Advance virtual time by ``count`` coalesced accesses at once.

        Used by the batched replay to retire a run of hits:
        ``advance(k)`` leaves the clock exactly where ``k`` calls to
        :meth:`tick` would (per-page timestamps for the batch are stamped
        separately, see ``GMTRuntime._batch_hits``).
        """
        if count < 0:
            raise ValueError(f"cannot advance virtual time by {count}")
        self._now += count

    def observe_access(self, state: PageState) -> int | None:
        """Advance the clock for an access to ``state``'s page and return
        the access's VTD (``None`` on the page's first access).

        Also stamps the page with the new time.
        """
        now = self.tick()
        vtd: int | None = None
        if state.last_access_ts is not None:
            vtd = now - state.last_access_ts
        state.last_access_ts = now
        return vtd

    def remaining_vtd_since(self, timestamp: int) -> int:
        """Virtual time elapsed since ``timestamp``.

        At a page's next access after eviction, the *actual* remaining VTD
        of the eviction is ``access_time - eviction_time``; the runtime uses
        this to resolve what the "correct" tier for that eviction was
        (paper section 2.1.3, step 2).
        """
        if timestamp > self._now:
            raise ValueError(f"timestamp {timestamp} is in the future (now={self._now})")
        return self._now - timestamp
