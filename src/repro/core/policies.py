"""The three Tier-1 eviction/placement policies of paper section 2.1.

- :class:`TierOrderPolicy` (GMT-TierOrder, 2.1.1): every victim goes to the
  next tier down; Tier-2 runs its own clock algorithm.
- :class:`RandomPolicy` (GMT-Random, 2.1.2): a coin flip decides host
  memory vs SSD.
- :class:`ReusePolicy` (GMT-Reuse, 2.1.3): predict the victim's remaining
  reuse distance (RRD) from sampled VTD->RD regression plus a 3-state
  Markov chain over per-page eviction history, then place by Eq. 1 —
  retain in Tier-1 (short), host memory (medium), or bypass to SSD (long),
  with section 2.2's 80 % Tier-3-bias override.

A policy is a pure decision maker: the runtime owns tiers, transfers and
counters and calls the hooks defined on :class:`PlacementPolicy`.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field

from repro.core.config import GMTConfig
from repro.core.placement import PlacementDecision, Tier3BiasHeuristic
from repro.core.stats import RuntimeStats
from repro.errors import ConfigError
from repro.mem.page import PageState
from repro.reuse.classifier import ReuseClass, RRDClassifier
from repro.reuse.markov import LastTierPredictor, MarkovTierPredictor
from repro.reuse.sampler import VTDSampler
from repro.reuse.vtd import VirtualTimestampClock


@dataclass(frozen=True)
class PlacementPlan:
    """What :meth:`PlacementPolicy.choose` decided for one clock victim.

    A plan is a value: the policies below return plans built once at
    import, so choosing allocates nothing, and the victim's lifecycle
    events record the plan's ``cause`` and ``predicted`` as they stand.
    """

    decision: PlacementDecision
    #: The reuse class behind the decision (None when the policy does not
    #: predict, or fell back to its default strategy).
    predicted_class: ReuseClass | None = None
    #: True when the 80 % heuristic overrode a Tier-3 prediction.
    forced_tier2: bool = False
    #: Why the victim moves (``policy-static``, ``cold-fallback``,
    #: ``predicted-<class>``, ``heuristic-forced-tier2`` or, for the
    #: twin below, ``retention-override``).
    cause: str = "policy-static"
    #: ``predicted_class`` in lower case, as lifecycle events carry it.
    predicted: str | None = field(init=False, compare=False)
    #: For a RETAIN plan, the Tier-2 plan the victim takes once its
    #: retry budget runs out; None for every other plan.
    retention_override: PlacementPlan | None = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        predicted = self.predicted_class
        object.__setattr__(
            self, "predicted", None if predicted is None else predicted.name.lower()
        )
        override = None
        if self.decision is PlacementDecision.RETAIN_TIER1:
            override = PlacementPlan(
                PlacementDecision.PLACE_TIER2, predicted, cause="retention-override"
            )
        object.__setattr__(self, "retention_override", override)


_PLACE_TIER2 = PlacementPlan(PlacementDecision.PLACE_TIER2)
_BYPASS_TIER3 = PlacementPlan(PlacementDecision.BYPASS_TIER3)
_COLD_FALLBACK = PlacementPlan(PlacementDecision.PLACE_TIER2, cause="cold-fallback")
_RETAIN_SHORT, _PLACE_MEDIUM, _BYPASS_LONG = (
    PlacementPlan(
        PlacementDecision.for_class(reuse_class),
        reuse_class,
        cause=f"predicted-{reuse_class.name.lower()}",
    )
    for reuse_class in (ReuseClass.SHORT, ReuseClass.MEDIUM, ReuseClass.LONG)
)
_FORCED_TIER2 = PlacementPlan(
    PlacementDecision.PLACE_TIER2,
    ReuseClass.LONG,
    forced_tier2=True,
    cause="heuristic-forced-tier2",
)


def plan_for_class(
    reuse_class: ReuseClass, heuristic: Tier3BiasHeuristic, override: bool
) -> PlacementPlan:
    """Eq. 1's plan for a victim of ``reuse_class``, once the class is
    noted in ``heuristic``'s window; with ``override``, a LONG victim goes
    to Tier-2 instead while that window is Tier-3 biased (section 2.2).
    GMT-Reuse passes its prediction, the oracle the true class."""
    heuristic.record(reuse_class)
    if reuse_class is ReuseClass.MEDIUM:
        return _PLACE_MEDIUM
    if reuse_class is ReuseClass.SHORT:
        return _RETAIN_SHORT
    if override and heuristic.fires():
        return _FORCED_TIER2
    return _BYPASS_LONG


class PlacementPolicy(abc.ABC):
    """Decision-maker for Tier-1 clock victims."""

    name: str = "abstract"
    #: GMT-TierOrder manages Tier-2 with a clock; the others use FIFO.
    tier2_uses_clock: bool = False
    #: On a full Tier-2, evict (TierOrder/Random, section 2.2) or bypass
    #: (Reuse, section 2.1.3: "we simply either discard (if clean) or put
    #: it in Tier-3 (if dirty)").
    tier2_evicts_on_full: bool = True
    #: Optional :class:`~repro.obs.telemetry.Telemetry`; None is the
    #: null-sink fast path.
    telemetry = None

    def __init__(self, config: GMTConfig, stats: RuntimeStats) -> None:
        self.config = config
        self.stats = stats

    def attach_telemetry(self, telemetry) -> None:
        """Hook the policy's decision points into ``telemetry`` (pass
        None to detach).  Subclasses extend this to wire their own
        pipeline stages (the reuse sampler, the Markov predictor)."""
        self.telemetry = telemetry

    def on_access(self, state: PageState, vtd: int | None) -> None:
        """Observe one coalesced access (before hit/miss is serviced)."""

    @property
    def hits_batchable(self) -> bool:
        """Whether Tier-1 hits may currently skip :meth:`on_access`.

        :meth:`GMTRuntime.run <repro.core.runtime.GMTRuntime.run>`
        retires runs of hits without calling ``on_access`` per access,
        which is only sound while the method is observationally a no-op.  The default
        answers True exactly when the policy inherits the base no-op;
        policies whose ``on_access`` does work override this (GMT-Reuse:
        batchable once its sampling window closes).  May flip False->True
        mid-run, never the reverse.
        """
        return type(self).on_access is PlacementPolicy.on_access

    def on_tier1_fill(self, state: PageState, from_tier2: bool = False):
        """A page was just installed in Tier-1 (demand fill).

        ``from_tier2`` tells the policy whether the fill was served by
        host memory (a successful earlier placement) or by the SSD.
        Returns ``(predicted, actual)`` when the fill resolved the page's
        previous eviction: the :class:`ReuseClass` predicted for it (None
        if it had no prediction) and the one it turned out to have.  The
        runtime records that as the page's RESOLVE lifecycle event.
        Returns None otherwise.
        """
        return None

    @abc.abstractmethod
    def choose(self, state: PageState) -> PlacementPlan:
        """Decide the fate of clock victim ``state``."""

    def on_evicted(self, state: PageState, plan: PlacementPlan) -> None:
        """The victim actually left Tier-1 under ``plan``."""


class TierOrderPolicy(PlacementPolicy):
    """GMT-TierOrder: strict tier ordering, clock in both top tiers."""

    name = "tier-order"
    tier2_uses_clock = True
    tier2_evicts_on_full = True

    def choose(self, state: PageState) -> PlacementPlan:
        return _PLACE_TIER2


class RandomPolicy(PlacementPolicy):
    """GMT-Random: place each victim in Tier-2 or Tier-3 by coin flip."""

    name = "random"
    tier2_evicts_on_full = True

    def __init__(
        self,
        config: GMTConfig,
        stats: RuntimeStats,
        rng: random.Random,
        tier2_probability: float = 0.5,
    ) -> None:
        super().__init__(config, stats)
        if not 0.0 <= tier2_probability <= 1.0:
            raise ConfigError(f"tier2_probability must be in [0, 1]: {tier2_probability}")
        self._rng = rng
        self.tier2_probability = tier2_probability

    def choose(self, state: PageState) -> PlacementPlan:
        if self._rng.random() < self.tier2_probability:
            return _PLACE_TIER2
        return _BYPASS_TIER3


class ReusePolicy(PlacementPolicy):
    """GMT-Reuse: RRD-predicted placement approximating Belady's OPT.

    Pipeline (paper section 2.1.3):

    1. every coalesced access feeds the VTD sampler, which maintains the
       pipelined OLS fit RD = m * VTD + b;
    2. when a page returns to Tier-1, its eviction's *actual* remaining
       VTD is known; Eq. 3 + Eq. 1 turn it into the "correct" tier, which
       updates the Markov chain (and resolves the accuracy bookkeeping);
    3. when the clock nominates a victim, the Markov chain predicts its
       next correct tier from the page's last correct tier; Eq. 1's class
       maps to retain / Tier-2 / Tier-3, subject to the 80 % heuristic.
    """

    name = "reuse"
    # Predicted-medium placements flow through a FIFO Tier-2 (section
    # 2.2); only heuristic-forced placements are free-slot-only — the
    # runtime narrows this per-plan via ``PlacementPlan.forced_tier2``.
    tier2_evicts_on_full = True

    # Keys into PageState.policy_state.
    _LAST_CORRECT = "last_correct"
    _PENDING = "pending_pred"

    def __init__(
        self,
        config: GMTConfig,
        stats: RuntimeStats,
        vts: VirtualTimestampClock,
        rng: random.Random,
    ) -> None:
        super().__init__(config, stats)
        self._vts = vts
        self._rng = rng
        self.sampler = VTDSampler(
            sample_target=config.sample_target, batch_size=config.sample_batch
        )
        if config.reuse_predictor == "last":
            self.predictor = LastTierPredictor()
        else:
            self.predictor = MarkovTierPredictor()
        self.classifier = RRDClassifier(config.tier1_frames, config.tier2_frames)
        self.heuristic = Tier3BiasHeuristic(
            threshold=config.tier3_bias_threshold, window=config.tier3_bias_window
        )
        self._heuristic_enabled = config.tier3_bias_enabled

    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        super().attach_telemetry(telemetry)
        self.sampler.telemetry = telemetry

    def on_access(self, state: PageState, vtd: int | None) -> None:
        self.sampler.observe(state.page, vtd)

    @property
    def hits_batchable(self) -> bool:
        # ``observe`` is a hard no-op once the sampling target is met; a
        # telemetry sink only records inside the window, so "done" is the
        # full batchability condition.
        return self.sampler.sampling_done

    def on_tier1_fill(self, state: PageState, from_tier2: bool = False):
        """Resolve the page's previous eviction now that its actual
        remaining VTD is known (paper: "this can be found out when a page
        is brought into GPU memory")."""
        if state.last_eviction_ts is None:
            return None  # cold fill; no prior eviction to resolve
        rvtd = self._vts.remaining_vtd_since(state.last_eviction_ts)
        state.last_eviction_ts = None
        rrd = self.sampler.predict_rrd(rvtd)
        if rrd is None:
            return None  # no regression model yet; cannot resolve
        actual = self.classifier.classify(rrd)
        last_correct = state.policy_state.get(self._LAST_CORRECT)
        if last_correct is not None:
            self.predictor.record_transition(last_correct, actual)
        state.policy_state[self._LAST_CORRECT] = actual
        pending = state.policy_state.pop(self._PENDING, None)
        if pending is not None:
            self.stats.record_prediction_outcome(pending.name, actual.name)
        if self.telemetry is not None:
            self.telemetry.instant(
                "markov-resolve", "reuse", page=state.page, actual=actual.name
            )
        return pending, actual

    def choose(self, state: PageState) -> PlacementPlan:
        last_correct = state.policy_state.get(self._LAST_CORRECT)
        predicted = self.predictor.predict(last_correct)
        if predicted is None:
            # No usable history: proceed with a default strategy as the
            # paper allows during the cold phase ("GMT-Random or
            # GMT-TierOrder").  TierOrder — insert into Tier-2 — is used:
            # the FIFO flow-through drains pages that never return, and
            # pages that do return cheaply build the history the
            # predictor needs.
            self.stats.fallback_placements += 1
            self.heuristic.record(ReuseClass.MEDIUM)
            return _COLD_FALLBACK

        self.stats.predictions_made += 1
        if self.telemetry is not None:
            self.telemetry.markov_confidence.observe(
                self.predictor.confidence(last_correct)
            )
        return plan_for_class(predicted, self.heuristic, self._heuristic_enabled)

    def on_evicted(self, state: PageState, plan: PlacementPlan) -> None:
        state.last_eviction_ts = self._vts.now
        if plan.predicted_class is not None:
            state.policy_state[self._PENDING] = plan.predicted_class
        else:
            state.policy_state.pop(self._PENDING, None)


def make_policy(
    config: GMTConfig,
    stats: RuntimeStats,
    vts: VirtualTimestampClock,
    rng: random.Random,
) -> PlacementPolicy:
    """Instantiate the policy named by ``config.policy``."""
    if config.policy == "tier-order":
        return TierOrderPolicy(config, stats)
    if config.policy == "random":
        return RandomPolicy(config, stats, rng)
    if config.policy == "reuse":
        return ReusePolicy(config, stats, vts, rng)
    if config.policy == "dueling":
        # Local import: the adaptive module composes the policies above.
        from repro.core.adaptive import DuelingPolicy

        return DuelingPolicy(config, stats, vts, rng)
    raise ConfigError(f"unknown policy: {config.policy!r}")
