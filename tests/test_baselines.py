"""Unit tests for the BaM and HMM baseline runtimes."""

import pytest

from repro.baselines.bam import BamRuntime
from repro.baselines.hmm import HmmRuntime, optimistic_hmm_breakdown
from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from tests.conftest import random_trace, sweep_trace


@pytest.fixture
def config():
    return GMTConfig(
        tier1_frames=16, tier2_frames=64, sample_target=200, sample_batch=50
    )


class TestBamRuntime:
    def test_has_no_tier2(self, config):
        bam = BamRuntime(config)
        assert bam.config.tier2_frames == 0
        assert bam.name == "BaM"

    def test_never_touches_tier2(self, config):
        bam = BamRuntime(config)
        for warp in random_trace(500, footprint=100, seed=2):
            bam.access_warp(warp)
        assert bam.stats.t2_lookups == 0
        assert bam.stats.t2_placements == 0
        assert bam.pcie.total_bytes == 0
        bam.check_invariants()

    def test_all_misses_hit_ssd(self, config):
        bam = BamRuntime(config)
        for warp in sweep_trace(100):
            bam.access_warp(warp)
        assert bam.stats.ssd_page_reads == 100

    def test_matches_gmt_with_zero_tier2(self, config):
        """BaM is definitionally GMT minus Tier-2."""
        from dataclasses import replace

        trace = random_trace(800, footprint=120, seed=5)
        bam = BamRuntime(config)
        gmt = GMTRuntime(replace(config, tier2_frames=0, policy="tier-order"))
        r_bam = bam.run(trace)
        r_gmt = gmt.run(trace)
        assert r_bam.stats.ssd_page_reads == r_gmt.stats.ssd_page_reads
        assert r_bam.stats.ssd_page_writes == r_gmt.stats.ssd_page_writes
        assert r_bam.elapsed_ns == pytest.approx(r_gmt.elapsed_ns)


class TestHmmRuntime:
    def test_host_orchestration_constants(self, config):
        hmm = HmmRuntime(config)
        platform = config.platform
        assert hmm.cost.fault_concurrency == platform.host_fault_concurrency
        assert hmm._extra_fault_ns == platform.host_fault_overhead_ns
        assert hmm.ssd.read_bandwidth == platform.host_pagecache_ssd_bandwidth
        assert hmm.name == "HMM"

    def test_uses_tier2(self, config):
        hmm = HmmRuntime(config)
        for warp in random_trace(500, footprint=100, seed=2):
            hmm.access_warp(warp)
        assert hmm.stats.t2_placements > 0
        hmm.check_invariants()

    def test_slower_than_bam_on_low_reuse(self, config):
        """Section 3.6: BaM outperforms HMM despite HMM's Tier-2."""
        trace = random_trace(1500, footprint=300, seed=4)
        bam = BamRuntime(config).run(trace)
        hmm = HmmRuntime(config).run(trace)
        assert hmm.elapsed_ns > bam.elapsed_ns

    def test_gmt_reuse_beats_hmm(self, config):
        trace = sweep_trace(config.total_memory_frames, repeats=6, write=True)
        hmm = HmmRuntime(config).run(trace)
        gmt = GMTRuntime(config).run(trace)
        assert gmt.elapsed_ns < hmm.elapsed_ns


class TestOptimisticHmm:
    def test_slower_than_gmt_reuse(self, config):
        """Section 3.6's point: orchestration alone keeps GMT ahead."""
        trace = sweep_trace(100, repeats=4)
        gmt = GMTRuntime(config).run(trace)
        optimistic = optimistic_hmm_breakdown(gmt, config)
        assert optimistic.elapsed_ns > gmt.elapsed_ns

    def test_faster_than_plain_hmm(self, config):
        """Granting GMT-Reuse's hit rates must help HMM."""
        trace = sweep_trace(120, repeats=5, write=True)
        hmm = HmmRuntime(config).run(trace)
        gmt = GMTRuntime(config).run(trace)
        optimistic = optimistic_hmm_breakdown(gmt, config)
        assert optimistic.elapsed_ns <= hmm.elapsed_ns * 1.05
