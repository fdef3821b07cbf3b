"""End-to-end telemetry tests: runtime wiring, windows, CLI, harness."""

import json
import random

import pytest

from repro.baselines.bam import BamRuntime
from repro.baselines.dragon import DragonRuntime
from repro.baselines.hmm import HmmRuntime
from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError
from repro.obs import Telemetry


def make_config(**kwargs):
    return GMTConfig(
        tier1_frames=kwargs.pop("tier1", 32),
        tier2_frames=kwargs.pop("tier2", 128),
        policy=kwargs.pop("policy", "reuse"),
        sample_target=200,
        sample_batch=40,
        **kwargs,
    )


def random_pages(n=2000, universe=1024, seed=11):
    rng = random.Random(seed)
    return [rng.randrange(universe) for _ in range(n)]


class TestRuntimeWiring:
    def test_disabled_by_default(self):
        rt = GMTRuntime(make_config())
        rt.access(1)
        assert rt._obs is None

    def test_counters_track_stats_exactly(self):
        rt = GMTRuntime(make_config())
        tel = rt.attach_telemetry()
        for p in random_pages():
            rt.access(p)
        reg = tel.registry
        assert reg.get("gmt_t1_hits").value == rt.stats.t1_hits
        assert reg.get("gmt_t2_hits").value == rt.stats.t2_hits
        assert reg.get("gmt_ssd_page_reads").value == rt.stats.ssd_page_reads

    def test_fault_histogram_counts_misses(self):
        rt = GMTRuntime(make_config())
        tel = rt.attach_telemetry()
        for p in random_pages():
            rt.access(p)
        assert tel.fault_latency.count == rt.stats.t1_misses
        assert tel.fault_latency.sum > 0

    def test_spans_cover_the_pipeline(self):
        rt = GMTRuntime(make_config(tier1=4, tier2=8))
        tel = rt.attach_telemetry()
        for p in random_pages(500, universe=64):
            rt.access(p, write=(p % 3 == 0))
        names = {s.name for s in tel.tracer}
        assert {"miss", "t2-lookup", "ssd-read", "evict"} <= names
        assert "t2-fetch" in names or "place-t2" in names

    def test_writeback_span_on_dirty_bypass(self):
        rt = GMTRuntime(make_config(tier1=1, tier2=0, policy="tier-order"))
        tel = rt.attach_telemetry()
        rt.access(1, write=True)
        rt.access(2)
        assert tel.tracer.spans(name="writeback")

    def test_pcie_and_nvme_observed(self):
        rt = GMTRuntime(make_config(tier1=4, tier2=8))
        tel = rt.attach_telemetry()
        for p in random_pages(500, universe=64):
            rt.access(p)
        assert tel.pcie_transfer_bytes.count == (
            rt.pcie.h2d_transfers + rt.pcie.d2h_transfers
        )
        assert tel.nvme_io_bytes.count > 0

    def test_labels_describe_the_runtime(self):
        rt = GMTRuntime(make_config())
        tel = rt.attach_telemetry()
        labels = tel.registry.const_labels
        assert labels["policy"] == "reuse"
        assert labels["orchestration"] == "gpu"

    def test_double_attach_other_runtime_rejected(self):
        tel = Telemetry()
        GMTRuntime(make_config()).attach_telemetry(tel)
        with pytest.raises(ConfigError):
            GMTRuntime(make_config()).attach_telemetry(tel)

    def test_detach_clears_hooks(self):
        rt = GMTRuntime(make_config())
        rt.attach_telemetry()
        rt.detach_telemetry()
        assert rt._obs is None
        assert rt.pcie.observer is None
        assert rt.ssd.observer is None
        assert rt.policy.telemetry is None

    def test_markov_confidence_observed_under_reuse(self):
        rt = GMTRuntime(make_config(tier1=8, tier2=16))
        tel = rt.attach_telemetry()
        pages = random_pages(4000, universe=256, seed=5)
        for p in pages:
            rt.access(p)
        if rt.stats.predictions_made:
            assert tel.markov_confidence.count > 0

    def test_reuse_distance_observed(self):
        rt = GMTRuntime(make_config())
        tel = rt.attach_telemetry()
        for p in random_pages(3000, universe=128):
            rt.access(p)
        assert tel.reuse_distance.count > 0


class TestBaselines:
    @pytest.mark.parametrize(
        "cls,expected",
        [
            (BamRuntime, {"baseline": "bam", "orchestration": "gpu"}),
            (HmmRuntime, {"baseline": "hmm", "orchestration": "host"}),
            (DragonRuntime, {"baseline": "dragon", "mechanism": "mmap"}),
        ],
    )
    def test_attach_and_labels(self, cls, expected):
        rt = cls(make_config())
        tel = rt.attach_telemetry()
        for p in random_pages(500):
            rt.access(p)
        for key, value in expected.items():
            assert tel.registry.const_labels[key] == value
        assert tel.tracer.emitted > 0
        assert tel.fault_latency.count == rt.stats.t1_misses


class TestWindows:
    def test_delta_windows_sum_to_totals(self):
        rt = GMTRuntime(make_config())
        tel = rt.attach_telemetry(Telemetry(window=500))
        for p in random_pages():
            rt.access(p)
        tel.snapshotter.snapshot(rt.stats.coalesced_accesses)  # final partial
        wins = tel.windows()
        assert len(wins) >= 2
        assert sum(w["gmt_t1_hits"] for w in wins) == rt.stats.t1_hits
        assert sum(w["gmt_coalesced_accesses"] for w in wins) == (
            rt.stats.coalesced_accesses
        )

    def test_run_flushes_the_final_partial_window(self):
        from repro.sim.gpu import WarpAccess

        rt = GMTRuntime(make_config())
        tel = rt.attach_telemetry(Telemetry(window=500))
        # 1234 accesses = two full windows + one 234-access tail.
        rng = random.Random(4)
        rt.run(
            WarpAccess(pages=(rng.randrange(1024),)) for _ in range(1234)
        )
        wins = tel.windows()
        assert wins[-1]["position"] == rt.stats.coalesced_accesses
        assert sum(w["gmt_coalesced_accesses"] for w in wins) == (
            rt.stats.coalesced_accesses
        )

    def test_flush_is_idempotent_and_skips_empty_tails(self):
        rt = GMTRuntime(make_config())
        tel = rt.attach_telemetry(Telemetry(window=500))
        for p in random_pages(n=500):
            rt.access(p)
        count = len(tel.windows())  # the full window was cut on its edge
        tel.finish()
        assert len(tel.windows()) == count  # nothing pending: no new window
        tel.finish()
        assert len(tel.windows()) == count

    def test_detach_flushes_pending_tail(self):
        rt = GMTRuntime(make_config())
        tel = rt.attach_telemetry(Telemetry(window=500))
        for p in random_pages(n=750):
            rt.access(p)
        rt.detach_telemetry()
        wins = tel.windows()
        assert wins[-1]["position"] == 750
        assert sum(w["span"] for w in wins) == 750

    def test_warmup_visible_on_iterative_workload(self):
        """Prediction coverage (history-driven share of placement
        decisions) must grow from the cold window to the last window on
        an iterative app."""
        from repro.workloads import make_workload

        rt = GMTRuntime(
            GMTConfig(
                tier1_frames=16,
                tier2_frames=64,
                policy="reuse",
                sample_target=300,
                sample_batch=50,
            )
        )
        tel = rt.attach_telemetry(Telemetry(window=500))
        rt.run(make_workload("backprop", 160, jitter_warps=0, epochs=10))
        coverage = []
        for w in tel.windows():
            decisions = w["gmt_predictions_made"] + w["gmt_fallback_placements"]
            coverage.append(w["gmt_predictions_made"] / decisions if decisions else 0.0)
        assert len(coverage) >= 3
        assert coverage[0] < coverage[-1]
        assert coverage[-1] > 0.3


class TestCliAndHarness:
    def test_gmt_sim_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main_sim

        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        rc = main_sim(
            [
                "hotspot",
                "--scale",
                "8192",
                "--runtimes",
                "bam",
                "reuse",
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(prom),
            ]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        processes = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert len(processes) == 2
        text = prom.read_text()
        assert "gmt_t1_hits_total" in text
        assert "gmt_t1_misses_total" in text
        assert "# TYPE gmt_fault_latency_ns histogram" in text

    def test_harness_telemetry_dir(self, tmp_path):
        from repro.experiments import harness
        from repro.experiments.engine import Engine

        engine = Engine(memo={}, options=harness.RunOptions(telemetry_dir=str(tmp_path)))
        cell = harness.replay("hotspot", "reuse", harness.default_config(8192))
        engine.run_cells([cell])
        # memoised second run must not fail or duplicate work
        engine.run_cells([cell])
        assert engine.stats.executed == 1
        assert (tmp_path / "hotspot-reuse.trace.json").exists()
        assert (tmp_path / "hotspot-reuse.prom").exists()

    def test_harness_disabled_writes_nothing(self, tmp_path, monkeypatch):
        from repro.experiments import harness
        from repro.experiments.engine import Engine

        monkeypatch.chdir(tmp_path)
        cell = harness.replay("hotspot", "bam", harness.default_config(8192))
        Engine(memo={}).run_cells([cell])
        assert list(tmp_path.iterdir()) == []
