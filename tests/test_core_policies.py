"""Unit tests for the three placement policies."""

import random

import pytest

from repro.core.config import GMTConfig
from repro.core.placement import PlacementDecision
from repro.core.policies import (
    RandomPolicy,
    ReusePolicy,
    TierOrderPolicy,
    make_policy,
)
from repro.core.stats import RuntimeStats
from repro.errors import ConfigError
from repro.mem.page import PageState
from repro.reuse.classifier import ReuseClass
from repro.reuse.vtd import VirtualTimestampClock


@pytest.fixture
def config():
    return GMTConfig(
        tier1_frames=8,
        tier2_frames=32,
        sample_target=40,
        sample_batch=10,
        tier3_bias_window=8,
    )


def build_reuse(config):
    stats = RuntimeStats()
    vts = VirtualTimestampClock()
    policy = ReusePolicy(config, stats, vts, random.Random(0))
    return policy, stats, vts


class TestMakePolicy:
    def test_each_kind(self, config):
        stats, vts, rng = RuntimeStats(), VirtualTimestampClock(), random.Random(0)
        assert isinstance(
            make_policy(config.with_policy("tier-order"), stats, vts, rng),
            TierOrderPolicy,
        )
        assert isinstance(
            make_policy(config.with_policy("random"), stats, vts, rng), RandomPolicy
        )
        assert isinstance(make_policy(config, stats, vts, rng), ReusePolicy)


class TestTierOrderPolicy:
    def test_always_places_tier2(self, config):
        policy = TierOrderPolicy(config, RuntimeStats())
        plan = policy.choose(PageState(page=1))
        assert plan.decision is PlacementDecision.PLACE_TIER2
        assert policy.tier2_uses_clock
        assert policy.tier2_evicts_on_full


class TestRandomPolicy:
    def test_mixes_tier2_and_tier3(self, config):
        policy = RandomPolicy(config, RuntimeStats(), random.Random(1))
        decisions = {policy.choose(PageState(page=p)).decision for p in range(50)}
        assert decisions == {
            PlacementDecision.PLACE_TIER2,
            PlacementDecision.BYPASS_TIER3,
        }

    def test_probability_extremes(self, config):
        always = RandomPolicy(config, RuntimeStats(), random.Random(1), 1.0)
        never = RandomPolicy(config, RuntimeStats(), random.Random(1), 0.0)
        for p in range(20):
            assert always.choose(PageState(page=p)).decision is PlacementDecision.PLACE_TIER2
            assert never.choose(PageState(page=p)).decision is PlacementDecision.BYPASS_TIER3

    def test_invalid_probability(self, config):
        with pytest.raises(ConfigError):
            RandomPolicy(config, RuntimeStats(), random.Random(0), 1.5)

    def test_deterministic_under_seed(self, config):
        a = RandomPolicy(config, RuntimeStats(), random.Random(7))
        b = RandomPolicy(config, RuntimeStats(), random.Random(7))
        for p in range(30):
            assert a.choose(PageState(page=p)).decision == b.choose(PageState(page=p)).decision


class TestReusePolicyColdPath:
    def test_no_history_falls_back_to_tier2(self, config):
        policy, stats, _ = build_reuse(config)
        plan = policy.choose(PageState(page=1))
        assert plan.cause == "cold-fallback"
        assert plan.decision is PlacementDecision.PLACE_TIER2
        assert stats.fallback_placements == 1

    def test_cold_fill_resolves_nothing(self, config):
        policy, stats, vts = build_reuse(config)
        state = PageState(page=1)
        vts.observe_access(state)
        policy.on_tier1_fill(state)  # no prior eviction
        assert stats.resolved_predictions == 0


class TestReusePolicyLearning:
    def _train(self, policy, vts, state, gap, rounds=6):
        """Simulate eviction -> (gap ticks) -> return cycles."""
        for _ in range(rounds):
            plan = policy.choose(state)
            policy.on_evicted(state, plan)
            for _ in range(gap):
                vts.tick()
            vts.observe_access(state)
            policy.on_tier1_fill(state)
        return policy.choose(state)

    def _prime_sampler(self, policy, footprint=20, repeats=4):
        """Give the sampler a ~identity VTD->RD relation."""
        now = 0
        last = {}
        for _ in range(repeats):
            for page in range(1000, 1000 + footprint):
                now += 1
                vtd = now - last.get(page, now)
                vtd = vtd if page in last else None
                last[page] = now
                policy.sampler.observe(page, vtd)

    def test_learns_medium_class(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy)
        assert policy.sampler.model is not None
        state = PageState(page=1)
        vts.observe_access(state)
        # Gap of 16 ticks -> RRD ~16, between tier1 (8) and tier1+2 (40).
        plan = self._train(policy, vts, state, gap=16)
        assert plan.predicted_class is ReuseClass.MEDIUM
        assert plan.decision is PlacementDecision.PLACE_TIER2

    def test_learns_short_class_retains(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy)
        state = PageState(page=2)
        vts.observe_access(state)
        plan = self._train(policy, vts, state, gap=2)  # RRD ~2 < 8
        assert plan.predicted_class is ReuseClass.SHORT
        assert plan.decision is PlacementDecision.RETAIN_TIER1

    def test_learns_long_class_bypasses(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy, footprint=60)
        state = PageState(page=3)
        vts.observe_access(state)
        plan = self._train(policy, vts, state, gap=100)  # RRD >= 40
        assert plan.predicted_class is ReuseClass.LONG
        assert plan.decision is PlacementDecision.BYPASS_TIER3

    def test_accuracy_bookkeeping(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy)
        state = PageState(page=4)
        vts.observe_access(state)
        self._train(policy, vts, state, gap=16, rounds=8)
        assert stats.resolved_predictions > 0
        assert stats.prediction_accuracy > 0.5

    def test_heuristic_forces_tier2_under_long_bias(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy, footprint=60)
        # Build LONG history on one page, then saturate the window.
        state = PageState(page=5)
        vts.observe_access(state)
        plan = None
        for _ in range(config.tier3_bias_window + 8):
            plan = self._train(policy, vts, state, gap=100, rounds=1)
        assert plan.forced_tier2
        assert plan.decision is PlacementDecision.PLACE_TIER2


class TestSharedPlans:
    """Policies return plans built once at import: an eviction allocates
    none, and a plan carries the cause its lifecycle events record."""

    KINDS = ("tier-order", "random", "reuse", "dueling", "oracle")

    @staticmethod
    def chosen_plans(kind, app):
        """Every plan ``kind``'s choose() returns while replaying ``app``,
        with the retention-override twins of the RETAIN plans."""
        from repro.core.oracle import (
            FutureReuseIndex,
            OraclePolicy,
            fit_global_vtd_model,
        )
        from repro.core.runtime import GMTRuntime
        from repro.experiments.harness import build_runtime, default_config, get_workload

        config = default_config(8192)
        workload = get_workload(app, config, seed=0)
        if kind == "oracle":
            index = FutureReuseIndex(workload)
            model = fit_global_vtd_model(workload)
            runtime = GMTRuntime(
                config,
                policy_factory=lambda cfg, stats, vts, rng: OraclePolicy(
                    cfg, stats, vts, index, model
                ),
            )
        else:
            runtime = build_runtime(kind, config)
        plans = []
        choose = runtime.policy.choose

        def recording(state):
            plans.append(choose(state))
            return plans[-1]

        runtime.policy.choose = recording
        runtime.run(workload)
        twins = [p.retention_override for p in plans if p.retention_override]
        return plans + twins

    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_outcomes_are_one_object(self, kind):
        plans = self.chosen_plans(kind, "srad") + self.chosen_plans(kind, "hotspot")
        assert len(plans) > 1000
        assert len({id(plan) for plan in plans}) == len(set(plans))

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_plan_carries_its_cause(self, kind):
        for plan in set(self.chosen_plans(kind, "srad")):
            assert plan.cause
            if plan.predicted_class is None:
                assert plan.predicted is None
            else:
                assert plan.predicted == plan.predicted_class.name.lower()
            if plan.decision is PlacementDecision.RETAIN_TIER1:
                twin = plan.retention_override
                assert twin.decision is PlacementDecision.PLACE_TIER2
                assert twin.cause == "retention-override"
                assert twin.predicted_class is plan.predicted_class
            else:
                assert plan.retention_override is None

    def test_class_plans(self, config):
        # GMT-Reuse and the oracle choose through one function: Eq. 1,
        # then section 2.2's override of a LONG victim.
        from repro.core.placement import Tier3BiasHeuristic
        from repro.core.policies import plan_for_class

        heuristic = Tier3BiasHeuristic(threshold=0.5, window=2)
        first = plan_for_class(ReuseClass.LONG, heuristic, override=True)
        assert first.decision is PlacementDecision.BYPASS_TIER3
        assert first.cause == "predicted-long"
        forced = plan_for_class(ReuseClass.LONG, heuristic, override=True)
        assert forced.forced_tier2 and forced.cause == "heuristic-forced-tier2"
        assert plan_for_class(ReuseClass.LONG, heuristic, override=False) is first
        medium = plan_for_class(ReuseClass.MEDIUM, heuristic, override=True)
        assert medium.cause == "predicted-medium"
        short = plan_for_class(ReuseClass.SHORT, heuristic, override=True)
        assert short.decision is PlacementDecision.RETAIN_TIER1
