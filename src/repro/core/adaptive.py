"""Set-dueling adaptive placement — an extension beyond the paper.

GMT-Reuse wins on average, but section 3.3 shows per-app upsets (LavaMD's
history-free phase, GMT-Random's Hotspot showing).  A classic answer from
the cache-replacement literature the paper draws on (DIP/set-dueling,
Qureshi+ ISCA'07) is to *let the workload pick the policy at runtime*:

- a small fixed sample of pages ("leader set A") is always placed by
  policy A, another sample by policy B;
- every other page (the "followers") is placed by whichever leader set's
  Tier-2 placements are currently paying off — measured as the *yield*:
  placements that later return from Tier-2, over placements made;
- yields decay each epoch so the duel tracks phase changes.

:class:`DuelingPolicy` duels GMT-TierOrder (insert everything — wins when
reuse comfortably fits Tier-1+2) against GMT-Reuse (selective — wins when
indiscriminate insertion floods Tier-2).  Select it with
``GMTConfig(policy="dueling")``.

Measured caveat (see the adaptive tests): unlike CPU caches, the duelled
resource here is *one shared* Tier-2, so leader-set placements interfere
with each other's measurements — the duel converges to the better policy
on clear-cut workloads but gives up a few percent against always-running
GMT-Reuse, which remains the recommended default.  The value of this
class is the quantified comparison, not a new default.
"""

from __future__ import annotations

import random

from repro.core.config import GMTConfig
from repro.core.placement import PlacementDecision
from repro.core.policies import (
    PlacementPlan,
    PlacementPolicy,
    ReusePolicy,
    TierOrderPolicy,
)
from repro.core.stats import RuntimeStats
from repro.errors import ConfigError
from repro.mem.page import PageState
from repro.reuse.vtd import VirtualTimestampClock

_SET_KEY = "dueling_set"  # PageState.policy_state: which policy placed it


class _LeaderScore:
    """Decayed placement/return counters for one leader set."""

    def __init__(self) -> None:
        self.placements = 0.0
        self.returns = 0.0

    def decay(self, factor: float) -> None:
        self.placements *= factor
        self.returns *= factor

    @property
    def yield_rate(self) -> float:
        """Returns per placement; optimistic prior when unsampled."""
        if self.placements < 1.0:
            return 1.0
        return self.returns / self.placements


class DuelingPolicy(PlacementPolicy):
    """Set-dueling between GMT-TierOrder (A) and GMT-Reuse (B)."""

    name = "dueling"
    tier2_evicts_on_full = True

    #: 1 / sampling ratio: pages with ``hash % MODULUS == 0`` lead for A,
    #: ``== 1`` lead for B.
    MODULUS = 32
    #: Evictions per scoring epoch; scores halve at each boundary.
    EPOCH_EVICTIONS = 512
    DECAY = 0.5
    #: Yield advantage TierOrder must show before followers switch to it.
    #: Sample-set yields are measured under follower interference (a
    #: churned Tier-2 depresses everyone), so small differences are noise;
    #: the selective policy is the safe default.
    SWITCH_MARGIN = 0.05

    def __init__(
        self,
        config: GMTConfig,
        stats: RuntimeStats,
        vts: VirtualTimestampClock,
        rng: random.Random,
    ) -> None:
        super().__init__(config, stats)
        self.policy_a = TierOrderPolicy(config, stats)
        self.policy_b = ReusePolicy(config, stats, vts, rng)
        self.score_a = _LeaderScore()
        self.score_b = _LeaderScore()
        self._evictions_this_epoch = 0

    def attach_telemetry(self, telemetry) -> None:
        super().attach_telemetry(telemetry)
        self.policy_a.attach_telemetry(telemetry)
        self.policy_b.attach_telemetry(telemetry)

    # ------------------------------------------------------------------
    def _set_of(self, page: int) -> str | None:
        bucket = hash(page) % self.MODULUS
        if bucket == 0:
            return "a"
        if bucket == 1:
            return "b"
        return None

    def _leader(self) -> PlacementPolicy:
        # Ties (including the unsampled cold start) go to GMT-Reuse: the
        # selective policy cannot pollute Tier-2, so it is the safer
        # default while evidence accumulates.
        if self.score_a.yield_rate > self.score_b.yield_rate + self.SWITCH_MARGIN:
            return self.policy_a
        return self.policy_b

    def _policy_for(self, page: int) -> PlacementPolicy:
        sample = self._set_of(page)
        if sample == "a":
            return self.policy_a
        if sample == "b":
            return self.policy_b
        return self._leader()

    @property
    def following(self) -> str:
        """Which policy the followers currently use ('tier-order'/'reuse')."""
        return self._leader().name

    # ------------------------------------------------------------------
    def on_access(self, state: PageState, vtd: int | None) -> None:
        # The reuse policy's sampler must see the whole stream regardless
        # of which policy ends up placing this page.
        self.policy_b.on_access(state, vtd)

    @property
    def hits_batchable(self) -> bool:
        return self.policy_b.hits_batchable

    def on_tier1_fill(self, state: PageState, from_tier2: bool = False):
        resolution = self.policy_b.on_tier1_fill(state, from_tier2)
        placed_by = state.policy_state.pop(_SET_KEY, None)
        if placed_by and from_tier2:
            score = self.score_a if placed_by == "a" else self.score_b
            score.returns += 1.0
        return resolution

    def choose(self, state: PageState) -> PlacementPlan:
        return self._policy_for(state.page).choose(state)

    def on_evicted(self, state: PageState, plan: PlacementPlan) -> None:
        policy = self._policy_for(state.page)
        policy.on_evicted(state, plan)
        sample = self._set_of(state.page)
        if sample and plan.decision is PlacementDecision.PLACE_TIER2:
            score = self.score_a if sample == "a" else self.score_b
            score.placements += 1.0
            state.policy_state[_SET_KEY] = sample
        self._evictions_this_epoch += 1
        if self._evictions_this_epoch >= self.EPOCH_EVICTIONS:
            self._evictions_this_epoch = 0
            self.score_a.decay(self.DECAY)
            self.score_b.decay(self.DECAY)


