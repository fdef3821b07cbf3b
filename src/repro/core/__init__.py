"""GMT's core: the GPU-orchestrated 3-tier runtime and its policies.

- :mod:`repro.core.config` — :class:`GMTConfig`, including the paper's
  default geometry (Tier-2 = 4 x Tier-1, over-subscription = 2);
- :mod:`repro.core.stats` — every counter the evaluation section reports;
- :mod:`repro.core.placement` — placement decisions + the 80 % Tier-3-bias
  heuristic of section 2.2;
- :mod:`repro.core.policies` — GMT-TierOrder, GMT-Random, GMT-Reuse;
- :mod:`repro.core.runtime` — :class:`GMTRuntime`, the demand-miss /
  lookup / eviction pipeline of section 2, and the replay loop that
  retires Tier-1 hit runs in batches (:mod:`repro.core.vector` holds
  the hit map and flattened trace it reads).
"""

from repro.core.config import GMTConfig
from repro.core.placement import PlacementDecision, Tier3BiasHeuristic
from repro.core.policies import (
    PlacementPolicy,
    RandomPolicy,
    ReusePolicy,
    TierOrderPolicy,
    make_policy,
)
from repro.core.runtime import GMTRuntime, RunResult
from repro.core.stats import RuntimeStats

__all__ = [
    "GMTConfig",
    "GMTRuntime",
    "PlacementDecision",
    "PlacementPolicy",
    "RandomPolicy",
    "ReusePolicy",
    "RunResult",
    "RuntimeStats",
    "Tier3BiasHeuristic",
    "TierOrderPolicy",
    "make_policy",
]
