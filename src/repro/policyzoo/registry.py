"""The eviction-policy registry: one source of truth for names.

CLIs (``gmt-serve --tier1-policy``, ``gmt-check --tier1-policy``),
configuration validation (``GMTConfig.tier1_eviction``) and the runtime
constructor all resolve policy names here.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.mem.clock_replacement import ClockReplacement
from repro.mem.tier2_order import Tier2Fifo
from repro.policyzoo.freq import LfuReplacement, MruReplacement
from repro.policyzoo.lhd import LhdReplacement
from repro.policyzoo.mglru import GenClockReplacement
from repro.policyzoo.s3fifo import S3FifoReplacement

#: The five members added on top of the historical clock/FIFO pair.
ZOO_POLICY_NAMES = ("s3fifo", "mglru", "lfu", "mru", "lhd")

#: Every name accepted by :func:`make_eviction_policy`.
EVICTION_POLICY_NAMES = ("clock", "fifo") + ZOO_POLICY_NAMES

#: One-line summaries, rendered into ``--help`` and ``docs/policies.md``.
POLICY_SUMMARIES = {
    "clock": "second-chance clock (GMT default at both tiers)",
    "fifo": "plain FIFO queue (historical Tier-2 default)",
    "s3fifo": "small/main queues + ghost history (quick-demotion FIFO)",
    "mglru": "generational clock: multi-gen aging, promote on re-reference",
    "lfu": "least-frequently-used, oldest-first tiebreak",
    "mru": "most-recently-used (scan-resistant for cyclic sweeps)",
    "lhd": "LHD-lite: sampled lowest-hit-density eviction",
}


def validate_policy_name(name: str) -> str:
    """Return ``name`` if registered; raise ``ConfigError`` otherwise."""
    if name not in EVICTION_POLICY_NAMES:
        raise ConfigError(
            f"unknown eviction policy {name!r}; choose from: "
            f"{', '.join(EVICTION_POLICY_NAMES)}"
        )
    return name


def make_eviction_policy(name: str, capacity: int):
    """Build a fresh policy instance for a tier of ``capacity`` frames.

    The same structure serves either tier: the runtime states each
    insert's reference bit (Tier-1 fills referenced, Tier-2 demotions
    cold).  ``fifo`` is unbounded, as the historical Tier-2 order
    structure was; every other member enforces ``capacity``.
    """
    validate_policy_name(name)
    if name == "clock":
        return ClockReplacement(capacity)
    if name == "fifo":
        return Tier2Fifo()
    if name == "s3fifo":
        return S3FifoReplacement(capacity)
    if name == "mglru":
        return GenClockReplacement(capacity)
    if name == "lfu":
        return LfuReplacement(capacity)
    if name == "mru":
        return MruReplacement(capacity)
    if name == "lhd":
        return LhdReplacement(capacity)
    raise ConfigError(f"unhandled eviction policy {name!r}")  # unreachable


def policy_summary() -> list[tuple[str, str]]:
    """(name, one-line description) rows in registry order."""
    return [(name, POLICY_SUMMARIES[name]) for name in EVICTION_POLICY_NAMES]
