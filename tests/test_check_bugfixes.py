"""Regression tests for the three accounting bugs the conformance
harness flushed out.  Each test fails on the pre-fix code:

1. dirty writebacks (and Tier-2 placements) caused by *prefetch-triggered*
   evictions never reached the queueing time model — the write link's
   busy time undercounted real SSD traffic;
2. the eviction-cause scratch was only stamped with the flight recorder
   attached and only reset on the demand path, so stale values could
   leak into later consumers (the scratch is gone: causes travel with
   the policy's plan);
3. the sequential prefetcher read past the workload footprint,
   fabricating page-table entries and phantom SSD reads for pages that
   do not exist.
"""

import pytest

from repro.check.identities import audit_runtime
from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError
from repro.obs.lifecycle import LifecycleKind
from repro.units import SEC


def make_config(**overrides):
    base = dict(
        tier1_frames=8,
        tier2_frames=16,
        policy="tier-order",
        sample_target=50,
        sample_batch=10,
    )
    base.update(overrides)
    return GMTConfig(**base)


class TestPrefetchEvictionQueueing:
    """Bug 1: prefetch-triggered eviction side effects and the time model."""

    def drive(self, runtime):
        """Dirty strided writes: prefetch fills keep evicting dirty pages."""
        for page in range(0, 120, 3):
            runtime.access(page, write=True)

    def instrument(self, runtime):
        """Count writebacks that happen *inside* the prefetch path."""
        original = runtime._prefetch_after
        seen = {"writes": 0, "t2_places": 0}

        def wrapped(page):
            writes = runtime.stats.ssd_page_writes
            places = runtime.stats.t2_placements
            original(page)
            seen["writes"] += runtime.stats.ssd_page_writes - writes
            seen["t2_places"] += runtime.stats.t2_placements - places

        runtime._prefetch_after = wrapped
        return seen

    def test_prefetch_writebacks_reach_the_write_link(self):
        config = make_config(
            tier2_frames=0, prefetch_degree=2, time_model="queueing"
        )
        runtime = GMTRuntime(config)
        seen = self.instrument(runtime)
        self.drive(runtime)

        # The scenario must actually exercise the bug: dirty pages were
        # written back while filling frames for prefetched pages.
        assert seen["writes"] > 0

        model = runtime._queueing
        wire = config.page_size / model._ssd_write.bandwidth * SEC
        expected = runtime.stats.ssd_page_writes * wire
        assert model.ssd_write_busy_ns == pytest.approx(expected, rel=1e-9)

    def test_prefetch_t2_placements_reach_the_pcie_link(self):
        config = make_config(
            tier1_frames=4, tier2_frames=32, policy="tier-order",
            prefetch_degree=2, time_model="queueing",
        )
        runtime = GMTRuntime(config)
        seen = self.instrument(runtime)
        self.drive(runtime)
        assert seen["t2_places"] > 0

        model = runtime._queueing
        wire = config.page_size / model._pcie.bandwidth * SEC
        expected = (
            runtime.stats.t2_hits + runtime.stats.t2_placements
        ) * wire
        assert model.pcie_busy_ns == pytest.approx(expected, rel=1e-9)

    def test_full_audit_clean_under_prefetch_and_queueing(self):
        config = make_config(prefetch_degree=2, time_model="queueing")
        runtime = GMTRuntime(config)
        self.drive(runtime)
        assert runtime.stats.prefetches_issued > 0
        assert audit_runtime(runtime) == []


class TestEvictionScratchReset:
    """Bug 2: each eviction's events carry its own decision's cause.

    The runtime once kept the cause in per-eviction scratch attributes;
    the decision now travels as the policy's plan, so nothing is left to
    go stale.  The eviction lock (tests/test_core_eviction_lock.py) pins
    every cause on full replays."""

    def test_prefetch_evictions_stamp_fresh_causes(self):
        # Behavioral: with the flight recorder attached, every DEMOTE
        # event carries the cause of *its own* eviction's decision.
        runtime = GMTRuntime(make_config(tier1_frames=4, prefetch_degree=2))
        recorder = runtime.attach_flight_recorder()
        for page in range(0, 60, 3):
            runtime.access(page, write=True)
        demotions = recorder.events(kind=LifecycleKind.DEMOTE)
        assert demotions
        for event in demotions:
            assert event.cause == "policy-static"


class TestPrefetchFootprintClamp:
    """Bug 3: the prefetch window must never cross the footprint."""

    def test_window_clamped_at_the_boundary(self):
        runtime = GMTRuntime(
            make_config(prefetch_degree=4, footprint_pages=12)
        )
        runtime.access(10)  # window 11..14 must clamp to {11}
        assert runtime.stats.prefetches_issued == 1
        assert runtime.stats.ssd_page_reads == 2  # demand + one prefetch

    def test_last_page_prefetches_nothing(self):
        runtime = GMTRuntime(
            make_config(prefetch_degree=4, footprint_pages=12)
        )
        runtime.access(11)
        assert runtime.stats.prefetches_issued == 0

    def test_no_page_past_the_bound_enters_the_page_table(self):
        runtime = GMTRuntime(
            make_config(prefetch_degree=4, footprint_pages=12)
        )
        for page in range(12):
            runtime.access(page)
        pages = [state.page for state in runtime.page_table]
        assert pages and max(pages) < 12
        assert audit_runtime(runtime) == []

    def test_unbounded_config_keeps_old_behaviour(self):
        runtime = GMTRuntime(make_config(prefetch_degree=4))
        runtime.access(10)
        assert runtime.stats.prefetches_issued == 4

    def test_footprint_validation(self):
        with pytest.raises(ConfigError):
            make_config(footprint_pages=0)
        with pytest.raises(ConfigError):
            make_config(footprint_pages=-3)

    def test_harness_threads_footprint_through(self):
        from repro.experiments.harness import (
            _with_footprint_bound,
            default_config,
            get_workload,
        )

        config = default_config(8192, prefetch_degree=2)
        workload = get_workload("hotspot", config, seed=0)
        bounded = _with_footprint_bound(config, workload)
        assert bounded.footprint_pages == workload.footprint_pages

        plain = default_config(8192)
        assert _with_footprint_bound(plain, workload) is plain
