"""Page identity and state.

A *page* is the paper's 64 KB unit of placement and movement.  Pages are
identified by a non-negative integer id; the dataset is assumed to live on
the SSD (Tier-3), exactly as in BaM's model, so every page always has a
backing copy there.  The in-memory copy (Tier-1 or Tier-2) may be *dirty*,
i.e. newer than the SSD copy; a clean page may be discarded on eviction
while a dirty one must be written back (paper section 2.1.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import PageStateError


class PageLocation(enum.Enum):
    """Which tier currently holds the authoritative copy of a page.

    The paper's design never duplicates a page across Tiers 1 and 2
    (section 2.2), so a single location is sufficient.
    """

    TIER1 = 1  # GPU memory
    TIER2 = 2  # host (CPU) memory
    TIER3 = 3  # SSD (backing store only; no in-memory copy)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return {1: "Tier-1", 2: "Tier-2", 3: "Tier-3"}[self.value]


@dataclass(slots=True)
class PageState:
    """Mutable per-page bookkeeping kept by the page table.

    Attributes:
        page: the page id.
        location: tier holding the authoritative copy (TIER3 = on SSD only).
        dirty: whether the in-memory copy differs from the SSD copy.  Only
            meaningful while ``location`` is TIER1 or TIER2.
        last_access_ts: virtual timestamp of the most recent coalesced
            access (see :mod:`repro.reuse.vtd`); ``None`` until first access.
        last_eviction_ts: virtual timestamp at which the page was last
            evicted from Tier-1; used to compute the *actual* remaining VTD
            when the page returns (paper section 2.1.3, step 2).
    """

    page: int
    location: PageLocation = PageLocation.TIER3
    dirty: bool = False
    last_access_ts: int | None = None
    last_eviction_ts: int | None = None
    #: True while the page sits in Tier-1 due to a prefetch and has not
    #: been demand-accessed yet (prefetch usefulness accounting).
    prefetched: bool = False
    # Scratch slot for policies (e.g. the Markov predictor's per-page
    # history); kept here so a policy does not need its own side table.
    policy_state: dict = field(default_factory=dict)

    @property
    def resident(self) -> bool:
        """True when an in-memory (Tier-1 or Tier-2) copy exists."""
        return self.location is not PageLocation.TIER3

    def mark_dirty(self) -> None:
        if not self.resident:
            raise PageStateError(f"page {self.page} is not resident; cannot dirty it")
        self.dirty = True

    def writeback(self) -> None:
        """Record that the in-memory copy was flushed to the SSD."""
        self.dirty = False
