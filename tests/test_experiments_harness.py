"""Unit tests for the experiment harness (configs, caching, runtimes)."""

import pytest

from repro.baselines.bam import BamRuntime
from repro.baselines.hmm import HmmRuntime
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError
from repro.experiments import harness
from repro.experiments.engine import Cell, Engine
from repro.experiments.harness import (
    ExperimentResult,
    RUNTIME_KINDS,
    RUNTIME_LABELS,
    RunOptions,
    app_label,
    build_runtime,
    default_config,
    get_workload,
    replay,
    replay_cell,
    replay_footprint_cell,
)


@pytest.fixture
def tiny_config():
    # Scale 8192 -> Tier-1 = 32 frames, Tier-2 = 128, footprint = 320.
    return default_config(scale=8192)


class TestDefaultConfig:
    def test_scaled_geometry(self, tiny_config):
        assert tiny_config.tier1_frames == 32
        assert tiny_config.tier2_frames == 128

    def test_sampling_scales_with_tier1(self, tiny_config):
        assert tiny_config.sample_target == max(1000, 32 * 20)

    def test_default_scale(self):
        cfg = default_config()
        assert cfg.tier1_frames == 1024


class TestBuildRuntime:
    def test_kinds(self, tiny_config):
        assert isinstance(build_runtime("bam", tiny_config), BamRuntime)
        assert isinstance(build_runtime("hmm", tiny_config), HmmRuntime)
        gmt = build_runtime("reuse", tiny_config)
        assert isinstance(gmt, GMTRuntime)
        assert gmt.policy.name == "reuse"

    def test_unknown_kind(self, tiny_config):
        with pytest.raises(ConfigError):
            build_runtime("belady", tiny_config)

    def test_labels_cover_kinds(self):
        assert set(RUNTIME_LABELS) == set(RUNTIME_KINDS)


class TestCaching:
    def test_workload_cached(self, tiny_config):
        a = get_workload("hotspot", tiny_config)
        b = get_workload("hotspot", tiny_config)
        assert a is b

    def test_workload_cache_distinguishes_kwargs(self, tiny_config):
        a = get_workload("hotspot", tiny_config)
        b = get_workload("hotspot", tiny_config, jitter_warps=0)
        assert a is not b


class TestRunMatrix:
    """The app x runtime replay matrix, as engine cells."""

    def test_shape(self, tiny_config):
        cells = {
            (app, kind): replay(app, kind, tiny_config)
            for app in ("lavamd", "pathfinder")
            for kind in ("bam", "reuse")
        }
        values = Engine(memo={}).run_cells(list(cells.values()))
        assert len(values) == 4
        assert values[cells["lavamd", "bam"]].elapsed_ns > 0

    def test_same_trace_for_all_kinds(self, tiny_config):
        bam = replay_cell("pathfinder", "bam", tiny_config)
        reuse = replay_cell("pathfinder", "reuse", tiny_config)
        assert bam.stats.coalesced_accesses == reuse.stats.coalesced_accesses


class TestRunAppWithFootprint:
    def test_explicit_footprint(self, tiny_config):
        small = replay_footprint_cell("hotspot", "bam", tiny_config, 200)
        large = replay_footprint_cell("hotspot", "bam", tiny_config, 400)
        assert (
            large.stats.coalesced_accesses > small.stats.coalesced_accesses
        )


class TestRunOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "turbo"},
            {"check_every": 0},
            {"telemetry_lifecycle": True},
            {"anomaly_spool": "spool", "anomaly_window": 0},
            {"anomaly_spool": "spool", "anomaly_thrash": -1.0},
            {"anomaly_spool": "spool", "anomaly_bypass": 1.5},
            {"anomaly_spool": "spool", "anomaly_spike": 1.0},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunOptions(**kwargs)

    def test_instruments(self):
        assert RunOptions().instruments() == {
            "recorder": False, "checks": False, "telemetry": False,
        }
        options = RunOptions(check_every=100, anomaly_spool="spool")
        assert options.instruments() == {
            "recorder": False, "checks": True, "telemetry": True,
        }

    def test_engine_installs_options_only_for_its_cells(self):
        options = RunOptions(engine="scalar", check_every=500)
        cell = Cell.make("repro.experiments.harness:run_options")
        assert Engine(memo={}, options=options).run_cells([cell])[cell] == options
        assert harness.run_options() == RunOptions()

    def test_options_restored_when_a_cell_fails(self, tiny_config):
        cell = Cell.make(
            "repro.experiments.harness:build_runtime", kind="belady", config=tiny_config
        )
        with pytest.raises(ConfigError):
            Engine(memo={}, options=RunOptions(engine="vector")).run_cells([cell])
        assert harness.run_options() == RunOptions()

    def test_installed_engine_reaches_build_runtime(self, tiny_config, monkeypatch):
        built = []
        build = harness.build_runtime

        def spy(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(harness, "build_runtime", spy)
        for engine in ("scalar", "vector"):
            cell = replay("hotspot", "reuse", tiny_config)
            Engine(memo={}, options=RunOptions(engine=engine)).run_cells([cell])
            assert built[-1].engine_name == engine


class TestExperimentResult:
    def test_to_text(self):
        res = ExperimentResult(
            name="figX",
            title="Figure X",
            headers=["app", "v"],
            rows=[["a", 1.0]],
            notes=["hello"],
        )
        text = res.to_text()
        assert "Figure X" in text
        assert "note: hello" in text


class TestAppLabel:
    def test_labels(self):
        assert app_label("lavamd") == "LavaMD"
        assert app_label("multivectoradd") == "MultiVectorAdd"
