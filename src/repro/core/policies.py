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
from dataclasses import dataclass

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
    """What :meth:`PlacementPolicy.choose` decided for one clock victim."""

    decision: PlacementDecision
    #: The Markov prediction behind the decision (None when the policy does
    #: not predict, or fell back to its default strategy).
    predicted_class: ReuseClass | None = None
    #: True when the 80 % heuristic overrode a Tier-3 prediction.
    forced_tier2: bool = False
    #: True when no usable history existed and a default strategy decided.
    from_fallback: bool = False


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

    def on_tier1_fill(self, state: PageState, from_tier2: bool = False) -> None:
        """A page was just installed in Tier-1 (demand fill).

        ``from_tier2`` tells the policy whether the fill was served by
        host memory (a successful earlier placement) or by the SSD.
        """

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
        return PlacementPlan(decision=PlacementDecision.PLACE_TIER2)


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
            return PlacementPlan(decision=PlacementDecision.PLACE_TIER2)
        return PlacementPlan(decision=PlacementDecision.BYPASS_TIER3)


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

    def on_tier1_fill(self, state: PageState, from_tier2: bool = False) -> None:
        """Resolve the page's previous eviction now that its actual
        remaining VTD is known (paper: "this can be found out when a page
        is brought into GPU memory")."""
        if state.last_eviction_ts is None:
            return  # cold fill; no prior eviction to resolve
        rvtd = self._vts.remaining_vtd_since(state.last_eviction_ts)
        state.last_eviction_ts = None
        rrd = self.sampler.predict_rrd(rvtd)
        if rrd is None:
            return  # no regression model yet; cannot resolve
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
            lifecycle = getattr(self.telemetry, "lifecycle", None)
            if lifecycle is not None:
                # Join point for predicted-vs-actual per page: the flight
                # recorder learns what the earlier placement *should* have
                # predicted, the moment the truth is known.
                from repro.obs.lifecycle import LifecycleKind

                cause = "unresolved"
                if pending is not None:
                    cause = "correct" if pending is actual else "mispredicted"
                lifecycle.emit(
                    LifecycleKind.RESOLVE,
                    state.page,
                    self.stats.coalesced_accesses,
                    cause=cause,
                    predicted=None if pending is None else pending.name.lower(),
                    detail=actual.name.lower(),
                )

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
            return PlacementPlan(
                decision=PlacementDecision.PLACE_TIER2, from_fallback=True
            )

        self.stats.predictions_made += 1
        self.heuristic.record(predicted)
        if self.telemetry is not None:
            self.telemetry.markov_confidence.observe(
                self.predictor.confidence(last_correct)
            )
        decision = PlacementDecision.for_class(predicted)
        if (
            self._heuristic_enabled
            and decision is PlacementDecision.BYPASS_TIER3
            and self.heuristic.should_force_tier2()
        ):
            return PlacementPlan(
                decision=PlacementDecision.PLACE_TIER2,
                predicted_class=predicted,
                forced_tier2=True,
            )
        return PlacementPlan(decision=decision, predicted_class=predicted)

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
