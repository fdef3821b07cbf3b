"""Unit tests for the eviction-policy zoo (repro.policyzoo).

Every policy implements the same strategy interface
(:class:`~repro.policyzoo.base.EvictionPolicy`); the shared contract is
exercised parametrically across the whole registry, then each member's
defining behaviour gets its own targeted class.
"""

import pytest

from repro.errors import CapacityError, ConfigError, PageStateError, SimulationError
from repro.mem.clock_replacement import ClockReplacement
from repro.mem.tier2_order import Tier2Fifo
from repro.policyzoo import (
    EVICTION_POLICY_NAMES,
    GenClockReplacement,
    GovernorConfig,
    LfuReplacement,
    LhdReplacement,
    MigrationGovernor,
    MruReplacement,
    PartitionedPolicy,
    S3FifoReplacement,
    ZOO_POLICY_NAMES,
    make_eviction_policy,
    policy_summary,
)
from repro.policyzoo.registry import validate_policy_name

CAPACITY = 8


def make(name, capacity=CAPACITY):
    return make_eviction_policy(name, capacity)


class TestRegistry:
    def test_zoo_is_subset_of_full_registry(self):
        assert set(ZOO_POLICY_NAMES) < set(EVICTION_POLICY_NAMES)
        assert "clock" in EVICTION_POLICY_NAMES
        assert "fifo" in EVICTION_POLICY_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            validate_policy_name("lru-3000")
        with pytest.raises(ConfigError):
            make_eviction_policy("lru-3000", 8)

    def test_tier1_clock_builds_the_historical_structure(self):
        assert isinstance(make_eviction_policy("clock", 8), ClockReplacement)

    def test_tier2_clock_and_fifo_build_tier2_orders(self):
        # One clock class serves both tiers; the runtime inserts Tier-2
        # demotions cold.
        assert type(make_eviction_policy("clock", 8)) is ClockReplacement
        assert isinstance(make_eviction_policy("fifo", 8), Tier2Fifo)

    def test_every_zoo_name_builds(self):
        kinds = {
            "s3fifo": S3FifoReplacement,
            "mglru": GenClockReplacement,
            "lfu": LfuReplacement,
            "mru": MruReplacement,
            "lhd": LhdReplacement,
        }
        for name in ZOO_POLICY_NAMES:
            assert isinstance(make(name), kinds[name])

    def test_summary_covers_every_name(self):
        assert [name for name, _ in policy_summary()] == list(EVICTION_POLICY_NAMES)


@pytest.mark.parametrize("name", ZOO_POLICY_NAMES)
class TestSharedContract:
    """The EvictionPolicy contract, identically across the zoo."""

    def test_insert_contains_len_remove(self, name):
        policy = make(name)
        policy.insert(3)
        policy.insert(5, referenced=False)
        assert 3 in policy and 5 in policy and 7 not in policy
        assert len(policy) == 2
        assert sorted(policy.pages()) == [3, 5]
        policy.remove(3)
        assert 3 not in policy and len(policy) == 1

    def test_duplicate_insert_rejected(self, name):
        policy = make(name)
        policy.insert(1)
        with pytest.raises(PageStateError):
            policy.insert(1)

    def test_insert_beyond_capacity_rejected(self, name):
        policy = make(name)
        for page in range(CAPACITY):
            policy.insert(page)
        with pytest.raises(CapacityError):
            policy.insert(CAPACITY)

    def test_touch_and_remove_unknown_page_rejected(self, name):
        policy = make(name)
        with pytest.raises(PageStateError):
            policy.touch(9)
        with pytest.raises(PageStateError):
            policy.remove(9)

    def test_victim_is_resident_and_removed(self, name):
        policy = make(name)
        for page in range(CAPACITY):
            policy.insert(page)
        victim = policy.select_victim()
        assert victim in range(CAPACITY)
        assert victim not in policy
        assert len(policy) == CAPACITY - 1

    def test_filtered_sweep_respects_predicate(self, name):
        policy = make(name)
        for page in range(CAPACITY):
            policy.insert(page)
        matching = {2, 5}
        victim = policy.select_victim_where(lambda p: p in matching)
        assert victim in matching
        assert victim not in policy

    def test_filtered_sweep_without_match_returns_none(self, name):
        policy = make(name)
        for page in range(4):
            policy.insert(page)
        assert policy.select_victim_where(lambda p: p > 100) is None
        assert len(policy) == 4

    def test_drain_to_empty_is_deterministic(self, name):
        def drain():
            policy = make(name)
            for page in range(CAPACITY):
                policy.insert(page, referenced=(page % 2 == 0))
            for page in (0, 3, 6):
                policy.touch(page)
            order = []
            while len(policy):
                order.append(policy.select_victim())
            return order

        assert drain() == drain()

    def test_check_integrity_passes_after_churn(self, name):
        policy = make(name)
        for page in range(CAPACITY):
            policy.insert(page)
        policy.touch(2)
        policy.select_victim()
        policy.remove(next(iter(policy.pages())))
        policy.insert(20)
        policy.check_integrity()


class TestS3Fifo:
    def test_small_queue_absorbs_one_hit_wonders(self):
        policy = S3FifoReplacement(10)
        for page in range(10):
            policy.insert(page)
        victim = policy.select_victim()
        # One-hit wonders leave through the small queue and are ghosted.
        assert victim == 0
        assert 0 in policy.ghost_pages()

    def test_ghost_hit_inserts_into_main(self):
        policy = S3FifoReplacement(10)
        for page in range(10):
            policy.insert(page)
        victim = policy.select_victim()
        policy.insert(victim)  # ghost hit: back from the dead
        assert victim in policy._main
        assert victim not in policy.ghost_pages()

    def test_touched_small_page_promotes_to_main_not_ghost(self):
        policy = S3FifoReplacement(10)
        policy.insert(0)
        policy.touch(0)
        for page in range(1, 10):
            policy.insert(page)
        policy.select_victim()
        assert 0 in policy  # survived: promoted to main
        assert 0 not in policy.ghost_pages()

    def test_ghost_is_bounded(self):
        policy = S3FifoReplacement(4)
        for round_ in range(6):
            for page in range(4):
                policy.insert(100 * round_ + page)
            while len(policy):
                policy.select_victim()
        assert len(policy.ghost_pages()) <= policy.ghost_bound

    def test_integrity_catches_seeded_ghost_leak(self):
        policy = S3FifoReplacement(4)
        policy.insert(1)
        policy._ghost[1] = True  # corrupt: resident page in the ghost
        with pytest.raises(SimulationError):
            policy.check_integrity()


class TestGenClock:
    def test_generations_only_grow(self):
        policy = GenClockReplacement(8, max_gens=4)
        seen = []
        for page in range(16):
            if len(policy) == 8:
                policy.select_victim()
            policy.insert(page)
            seen.append(policy.youngest_generation)
        assert seen == sorted(seen)

    def test_touch_promotes_to_youngest(self):
        policy = GenClockReplacement(8, max_gens=4)
        for page in range(8):  # spans several generations
            policy.insert(page)
        assert policy.generation_of(0) < policy.youngest_generation
        policy.touch(0)
        assert policy.generation_of(0) == policy.youngest_generation

    def test_victim_comes_from_oldest_generation(self):
        policy = GenClockReplacement(8, max_gens=4)
        for page in range(8):
            policy.insert(page)
        oldest = min(policy.generation_of(p) for p in policy.pages())
        victim = policy.select_victim()
        assert policy.generation_of is not None
        assert victim in {p for p in range(8)}
        # The victim belonged to the oldest generation.
        assert all(
            policy.generation_of(p) >= oldest for p in policy.pages()
        )


class TestFrequencyPolicies:
    def test_lfu_evicts_least_frequent(self):
        policy = LfuReplacement(4)
        for page in range(4):
            policy.insert(page)
        for _ in range(3):
            policy.touch(1)
        policy.touch(2)
        policy.touch(3)
        assert policy.select_victim() == 0

    def test_lfu_ties_break_oldest_first(self):
        policy = LfuReplacement(4)
        for page in (7, 3, 9):
            policy.insert(page)
        assert policy.select_victim() == 7

    def test_mru_evicts_most_recent(self):
        policy = MruReplacement(4)
        for page in range(4):
            policy.insert(page)
        policy.touch(1)
        assert policy.select_victim() == 1

    def test_lhd_prefers_low_hit_density(self):
        policy = LhdReplacement(4)
        for page in range(4):
            policy.insert(page)
        for _ in range(5):
            policy.touch(3)
        victim = policy.select_victim()
        assert victim != 3  # the dense page survives


class TestPartitionedPolicy:
    def owner(self, page):
        return page >> 8

    def build(self):
        subs = [LfuReplacement(8), MruReplacement(8)]
        return PartitionedPolicy(subs, self.owner, names=("lfu", "mru"))

    def test_routes_by_owner(self):
        policy = self.build()
        policy.insert(0x001)
        policy.insert(0x102)
        assert len(policy.policies[0]) == 1
        assert len(policy.policies[1]) == 1
        assert 0x001 in policy and 0x102 in policy
        assert len(policy) == 2

    def test_out_of_range_owner_rejected(self):
        policy = self.build()
        with pytest.raises(PageStateError):
            policy.insert(0x205)

    def test_unfiltered_victim_from_largest_partition(self):
        policy = self.build()
        policy.insert(0x001)
        for page in (0x101, 0x102, 0x103):
            policy.insert(page)
        victim = policy.select_victim()
        assert self.owner(victim) == 1

    def test_filtered_sweep_delegates_in_tenant_order(self):
        policy = self.build()
        policy.insert(0x001)
        policy.insert(0x101)
        victim = policy.select_victim_where(lambda p: True)
        assert self.owner(victim) == 0

    def test_integrity_catches_cross_partition_page(self):
        policy = self.build()
        policy.policies[0].insert(0x150)  # belongs to tenant 1
        with pytest.raises(SimulationError):
            policy.check_integrity()


class TestGovernor:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GovernorConfig(tokens_per_1k_accesses=0.0)
        with pytest.raises(ConfigError):
            GovernorConfig(burst=0.0)
        with pytest.raises(ConfigError):
            GovernorConfig(promotion_stall_ns=-1.0)

    def test_starts_with_a_full_burst(self):
        governor = MigrationGovernor(GovernorConfig(burst=4.0), tenants=2)
        for _ in range(4):
            assert governor.try_take(0, now=0)
        assert not governor.try_take(0, now=0)
        # Tenant 1's bucket is independent.
        assert governor.try_take(1, now=0)

    def test_refill_is_proportional_to_elapsed_accesses(self):
        config = GovernorConfig(tokens_per_1k_accesses=100.0, burst=4.0)
        governor = MigrationGovernor(config, tenants=1)
        for _ in range(4):
            governor.try_take(0, now=0)
        assert not governor.try_take(0, now=0)
        # 10 accesses at 100 tokens/1k = 1 token.
        assert governor.try_take(0, now=10)
        assert not governor.try_take(0, now=10)

    def test_refill_caps_at_burst(self):
        config = GovernorConfig(tokens_per_1k_accesses=100.0, burst=2.0)
        governor = MigrationGovernor(config, tenants=1)
        assert governor.tokens(0, now=1_000_000) == pytest.approx(2.0)

    def test_counters_track_grants_and_denials(self):
        governor = MigrationGovernor(GovernorConfig(burst=1.0), tenants=1)
        assert governor.try_take(0, now=0)
        assert not governor.try_take(0, now=0)
        assert governor.granted[0] == 1
        assert governor.denied[0] == 1
