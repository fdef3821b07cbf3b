"""Placement decisions and the 80 % Tier-3-bias heuristic.

Paper section 2.2: "if greater than 80% of the last evictions from Tier-1
have an RRD that would place the pages in Tier-3, we still place the
current eviction into Tier-2 even if the prediction asks us to place it in
Tier-3."  Without this, workloads whose reuse distances all exceed
Tier-1+Tier-2 (Hotspot) would leave host memory empty and gain nothing
from the hierarchy; with it, Hotspot sees a 73 % SSD-I/O reduction.
"""

from __future__ import annotations

import enum
from collections import deque

from repro.errors import ConfigError
from repro.reuse.classifier import ReuseClass


class PlacementDecision(enum.Enum):
    """Fate of a clock victim (paper section 2.1.3 "Overview")."""

    RETAIN_TIER1 = 1   # short-reuse: keep, run another clock round
    PLACE_TIER2 = 2    # medium-reuse: into host memory
    BYPASS_TIER3 = 3   # long-reuse: discard clean / write dirty to SSD

    @classmethod
    def for_class(cls, reuse_class: ReuseClass) -> "PlacementDecision":
        """Map an Eq. 1 class to its placement (same tier numbering)."""
        return cls(reuse_class.value)


class Tier3BiasHeuristic:
    """Sliding window over recent predicted classes; fires when Tier-3
    predictions dominate.

    Args:
        threshold: fraction of the window that must be LONG (paper: 0.8).
        window: number of recent evictions considered.  The heuristic only
            activates once the window is full, so early noisy predictions
            cannot trigger it.
    """

    def __init__(self, threshold: float = 0.8, window: int = 64) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.threshold = threshold
        self.window = window
        self._recent: deque[bool] = deque(maxlen=window)
        self._long_count = 0

    def record(self, predicted: ReuseClass) -> None:
        """Note one eviction's predicted class."""
        if len(self._recent) == self.window:
            if self._recent[0]:
                self._long_count -= 1
        is_long = predicted is ReuseClass.LONG
        self._recent.append(is_long)
        if is_long:
            self._long_count += 1

    @property
    def long_fraction(self) -> float:
        """Fraction of the (current) window predicted LONG."""
        if not self._recent:
            return 0.0
        return self._long_count / len(self._recent)

    def fires(self) -> bool:
        """True when a LONG prediction should be overridden into Tier-2."""
        if len(self._recent) < self.window:
            return False
        return self._long_count / self.window > self.threshold
