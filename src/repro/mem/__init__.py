"""Memory-management substrate shared by all runtimes (GMT, BaM, HMM).

This subpackage models the mechanical pieces the paper builds on:

- :mod:`repro.mem.page` — page identity, location, and dirty state;
- :mod:`repro.mem.page_table` — the page table mapping page id -> state;
- :mod:`repro.mem.clock_replacement` — the clock (second chance) algorithm
  used for Tier-1 (and Tier-2 under GMT-TierOrder), per paper section 2;
- :mod:`repro.mem.tier2_order` — :class:`Tier2Fifo`, the simple Tier-2
  FIFO of paper section 2.2.

A tier is its eviction structure: the structure records which pages the
tier holds, and the runtime's config holds the tier's frame count.
"""

from repro.mem.clock_replacement import ClockReplacement
from repro.mem.page import PageLocation, PageState
from repro.mem.page_table import PageTable
from repro.mem.tier2_order import Tier2Fifo

__all__ = [
    "ClockReplacement",
    "PageLocation",
    "PageState",
    "PageTable",
    "Tier2Fifo",
]
