"""Property tests for multi-tenant serving: invariants over random mixes.

Hypothesis is not available in CI, so this is a hypothesis-style loop
over seeds: each seed draws a random mix (workloads, discipline, quota
mode, weights, arrivals) on a deliberately tiny hierarchy and asserts
the structural invariants that must survive *any* interleaving:

- the runtime's own :meth:`check_invariants` (no page in two tiers, no
  tier over physical capacity, consistent page states);
- the per-tenant residency counts sum to each tier's occupancy and never
  exceed its capacity;
- with static quotas, no tenant's *peak* residency exceeded its budget;
- the per-tenant stat slices decompose the aggregate exactly.
"""

import random

import pytest

from repro.core.config import GMTConfig
from repro.core.stats import RuntimeStats
from repro.serve import (
    QUOTA_MODES,
    SCHEDULER_NAMES,
    QuotaConfig,
    TenantServer,
    TenantSpec,
    build_tenants,
)

#: Cheap generators — footprints here are a few hundred pages at most.
CHEAP_WORKLOADS = ("hotspot", "pathfinder", "srad", "lavamd")

SEEDS = range(8)


def random_mix(seed: int):
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    specs = [
        TenantSpec(
            name=f"t{i}",
            workload=rng.choice(CHEAP_WORKLOADS),
            weight=rng.choice([0.5, 1.0, 2.0]),
            arrival=rng.choice([0, 0, 10, 50]),
        )
        for i in range(n)
    ]
    discipline = rng.choice(SCHEDULER_NAMES)
    mode = rng.choice(QUOTA_MODES)
    return specs, discipline, mode


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_after_interleaved_replay(seed):
    specs, discipline, mode = random_mix(seed)
    config = GMTConfig(tier1_frames=16, tier2_frames=32)
    streams = build_tenants(specs, config, seed=seed)
    server = TenantServer(
        config, streams, discipline=discipline, quota=QuotaConfig(mode=mode)
    )
    outcome = server.run(solo_baselines=False)
    runtime = server.runtime

    # Structural invariants of the shared hierarchy.
    runtime.check_invariants()

    # Per-tenant residency decomposes each tier's occupancy and can never
    # exceed the tier's physical capacity.
    quotas = runtime.quotas
    for tier, structure, capacity in (
        (1, runtime.t1_clock, config.tier1_frames),
        (2, runtime._t2_order, config.tier2_frames),
    ):
        counts = quotas.residents(tier)
        assert sum(counts.values()) == len(structure)
        assert sum(counts.values()) <= capacity
        for owner, count in counts.items():
            assert 0 <= owner < len(streams)
            assert count == quotas.resident(tier, owner)

    # Static quotas are hard caps on *peak* residency.
    if mode == "static":
        for idx in range(len(streams)):
            assert quotas.peak(1, idx) <= quotas.static_tier1_budget(idx)
            assert quotas.peak(2, idx) <= quotas.static_tier2_budget(idx)

    # The tenant slices decompose the aggregate counters exactly.
    for field in RuntimeStats.counter_names():
        total = sum(getattr(s, field) for s in runtime.tenant_stats)
        assert total == getattr(runtime.stats, field), (field, seed)

    # Every tenant finished within the makespan.
    for tenant in outcome.tenants:
        assert 0 <= tenant.finish_ns <= outcome.elapsed_ns + 1e-6
