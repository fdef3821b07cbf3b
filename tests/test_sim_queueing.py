"""Unit tests for the queueing time model."""

import pytest

from repro.errors import SimulationError
from repro.sim.latency import PlatformModel
from repro.sim.queueing import FluidLink, QueueingModel, SlotPool
from repro.units import GiB, PAGE_SIZE, SEC, USEC


class TestSlotPool:
    def test_single_slot_serializes(self):
        pool = SlotPool(1)
        start1 = pool.admit(0.0)
        pool.release(start1 + 100.0)
        start2 = pool.admit(10.0)
        assert start1 == 0.0
        assert start2 == 100.0  # waited for the slot

    def test_parallel_slots(self):
        pool = SlotPool(2)
        a = pool.admit(0.0)
        b = pool.admit(0.0)
        assert a == b == 0.0

    def test_ready_after_free(self):
        pool = SlotPool(1)
        s = pool.admit(50.0)
        assert s == 50.0  # no artificial wait

    def test_validation(self):
        with pytest.raises(SimulationError):
            SlotPool(0)


class TestFluidLink:
    def test_wire_time(self):
        link = FluidLink(bandwidth=1 * GiB)
        finish = link.transfer(0.0, GiB)
        assert finish == pytest.approx(SEC)

    def test_busy_accumulates(self):
        link = FluidLink(bandwidth=1 * GiB)
        link.transfer(0.0, GiB // 2)
        link.transfer(100.0, GiB // 2)
        assert link.busy_ns == pytest.approx(SEC)

    def test_validation(self):
        with pytest.raises(SimulationError):
            FluidLink(0)
        with pytest.raises(SimulationError):
            FluidLink(1.0).transfer(0.0, -1)


class TestQueueingModel:
    def make(self, concurrency=2, **kwargs):
        platform = PlatformModel(**kwargs)
        return QueueingModel(
            platform=platform, page_size=PAGE_SIZE, fault_concurrency=concurrency
        )

    def test_hits_only_track_issue_rate(self):
        qm = self.make()
        for _ in range(100):
            qm.on_hit()
        platform = PlatformModel()
        assert qm.makespan_ns == pytest.approx(100 * platform.gpu_access_ns)

    def test_single_miss_latency(self):
        qm = self.make()
        done = qm.on_miss(tier2_lookup=False, tier2_hit=False)
        platform = PlatformModel()
        wire = PAGE_SIZE / platform.ssd_read_bandwidth * SEC
        expected = platform.gpu_access_ns + platform.ssd_read_latency_ns + wire
        assert done == pytest.approx(expected)

    def test_fault_slots_throttle(self):
        # 2 slots, 3 back-to-back misses: the third waits for a slot.
        qm = self.make(concurrency=2)
        d1 = qm.on_miss(tier2_lookup=False, tier2_hit=False)
        d2 = qm.on_miss(tier2_lookup=False, tier2_hit=False)
        d3 = qm.on_miss(tier2_lookup=False, tier2_hit=False)
        assert d3 > max(d1, d2)
        assert d3 >= min(d1, d2) + PlatformModel().ssd_read_latency_ns * 0.9

    def test_tier2_hit_cheaper_than_ssd(self):
        a = self.make(concurrency=1)
        t_ssd = a.on_miss(tier2_lookup=True, tier2_hit=False)
        b = self.make(concurrency=1)
        t_host = b.on_miss(tier2_lookup=True, tier2_hit=True)
        assert t_host < t_ssd

    def test_bandwidth_floor(self):
        qm = self.make(concurrency=1000)
        for _ in range(1000):
            qm.on_miss(tier2_lookup=False, tier2_hit=False)
        platform = PlatformModel()
        floor = 1000 * PAGE_SIZE / platform.ssd_read_bandwidth * SEC
        assert qm.makespan_ns >= floor

    def test_background_io_counts_toward_floor(self):
        qm = self.make()
        before = qm.makespan_ns
        for _ in range(10_000):
            qm.on_background_io(PAGE_SIZE)
        assert qm.makespan_ns > before

    def test_eviction_side_effects_extend_chain(self):
        plain = self.make(concurrency=1).on_miss(tier2_lookup=True, tier2_hit=False)
        loaded = self.make(concurrency=1).on_miss(
            tier2_lookup=True,
            tier2_hit=False,
            writeback=True,
            tier2_place=True,
            tier2_evict=True,
        )
        assert loaded > plain

    def test_host_orchestration_overhead(self):
        fast = self.make(concurrency=1)
        platform = PlatformModel()
        slow = QueueingModel(
            platform=platform,
            page_size=PAGE_SIZE,
            fault_concurrency=1,
            extra_fault_ns=80 * USEC,
        )
        t_fast = fast.on_miss(tier2_lookup=False, tier2_hit=False)
        t_slow = slow.on_miss(tier2_lookup=False, tier2_hit=False)
        assert t_slow == pytest.approx(t_fast + 80 * USEC)


class TestRuntimeIntegration:
    def test_models_agree_when_bandwidth_bound(self):
        """The validation claim: on the paper's platform the roofline and
        queueing models coincide for bandwidth-bound runs."""
        from dataclasses import replace

        from repro.core.config import GMTConfig
        from repro.core.runtime import GMTRuntime
        from repro.workloads import make_workload

        cfg = GMTConfig(
            tier1_frames=32, tier2_frames=128, sample_target=500, sample_batch=100
        )
        workload = make_workload("hotspot", 320)
        analytic = GMTRuntime(cfg).run(workload)
        queued = GMTRuntime(replace(cfg, time_model="queueing")).run(workload)
        assert queued.elapsed_ns == pytest.approx(analytic.elapsed_ns, rel=0.1)
        assert queued.breakdown.measured_ns is not None
        assert analytic.breakdown.measured_ns is None

    def test_queueing_model_exceeds_roofline_when_latency_bound(self):
        """With a tiny handler pool (HMM-like), queueing adds real delay
        the averaged roofline term can miss; the measured makespan must be
        at least the roofline."""
        from dataclasses import replace

        from repro.core.config import GMTConfig
        from repro.baselines.hmm import HmmRuntime
        from repro.workloads import make_workload

        cfg = GMTConfig(
            tier1_frames=32, tier2_frames=128, sample_target=500, sample_batch=100
        )
        workload = make_workload("lavamd", 320)
        analytic = HmmRuntime(cfg).run(workload)
        queued = HmmRuntime(replace(cfg, time_model="queueing")).run(workload)
        assert queued.elapsed_ns >= analytic.elapsed_ns * 0.9

    def test_invalid_time_model_rejected(self):
        from repro.core.config import GMTConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            GMTConfig(tier1_frames=4, tier2_frames=4, time_model="exact")


class TestEvictionSideEffects:
    """The queueing model learns each eviction's side effects (a dirty
    writeback, a Tier-2 placement, a Tier-2 eviction) once, on the
    critical path or in the background, so its tallies equal the
    runtime counters that record them.  The modelled makespan can hide
    a lost Tier-2 eviction, so these count the model's inputs."""

    @staticmethod
    def tally(async_evictions):
        from collections import Counter
        from dataclasses import replace

        from repro.experiments.harness import build_runtime, default_config, get_workload

        config = replace(
            default_config(8192), time_model="queueing", async_evictions=async_evictions
        )
        runtime = build_runtime("tier-order", config)
        model = runtime._queueing_model()
        seen = Counter()
        on_miss, on_io, on_pcie = (
            model.on_miss, model.on_background_io, model.on_background_pcie
        )

        def miss(tier2_lookup, tier2_hit, **effects):
            seen.update(name for name, value in effects.items() if value)
            return on_miss(tier2_lookup, tier2_hit, **effects)

        def background_io(num_bytes, write=False):
            seen["background-write" if write else "background-read"] += 1
            on_io(num_bytes, write)

        def background_pcie(num_bytes):
            seen["background-pcie"] += 1
            on_pcie(num_bytes)

        model.on_miss = miss
        model.on_background_io = background_io
        model.on_background_pcie = background_pcie
        stats = runtime.run(get_workload("srad", config, seed=0)).stats
        assert stats.ssd_page_writes and stats.t2_placements and stats.t2_evictions
        return seen, stats

    def test_synchronous_evictions_reach_the_critical_path(self):
        seen, stats = self.tally(async_evictions=False)
        assert seen["writeback"] == stats.ssd_page_writes
        assert seen["tier2_place"] == stats.t2_placements
        assert seen["tier2_evict"] == stats.t2_evictions
        assert not seen["background-write"] and not seen["background-pcie"]

    def test_background_evictions_reach_the_links(self):
        seen, stats = self.tally(async_evictions=True)
        assert seen["background-write"] == stats.ssd_page_writes
        assert seen["background-pcie"] == stats.t2_placements
        assert not (seen["writeback"] or seen["tier2_place"] or seen["tier2_evict"])
