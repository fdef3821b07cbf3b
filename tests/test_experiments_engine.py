"""Engine, cache, spec-protocol and CLI-wiring tests (the ISSUE's tier)."""

import pickle

import pytest

from repro.experiments import fig9
from repro.experiments.engine import (
    _MISS,
    Cell,
    Engine,
    ResultCache,
    cell_key,
    engine_registry,
    run_cells,
)
from repro.experiments.harness import (
    ExperimentResult,
    default_config,
    replay,
)
from repro.experiments.spec import CellResults, ExperimentSpec, run_spec
from repro.errors import ConfigError

SCALE = 8192


# ----------------------------------------------------------------------
# Cell identity and keys
# ----------------------------------------------------------------------
class TestCellKeys:
    def test_same_spec_same_key(self):
        a = replay("srad", "reuse", default_config(SCALE))
        b = replay("srad", "reuse", default_config(SCALE))
        assert a == b
        assert cell_key(a) == cell_key(b)

    def test_config_change_changes_key(self):
        a = replay("srad", "reuse", default_config(SCALE))
        b = replay("srad", "reuse", default_config(SCALE * 2))
        assert a != b
        assert cell_key(a) != cell_key(b)

    def test_label_excluded_from_identity(self):
        a = Cell.make("m:f", label="one", x=1)
        b = Cell.make("m:f", label="two", x=1)
        assert a == b
        assert cell_key(a) == cell_key(b)
        assert len({a, b}) == 1

    def test_param_order_is_canonical(self):
        a = Cell.make("m:f", x=1, y=2)
        b = Cell.make("m:f", y=2, x=1)
        assert a == b and cell_key(a) == cell_key(b)

    def test_salt_changes_key(self):
        cell = Cell.make("m:f", x=1)
        assert cell_key(cell, salt="a") != cell_key(cell, salt="b")

    def test_fn_must_be_dotted_path(self):
        with pytest.raises(ConfigError):
            Cell.make("not_a_path")

    def test_float_and_int_params_differ(self):
        assert cell_key(Cell.make("m:f", x=1)) != cell_key(Cell.make("m:f", x=1.0))


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key(Cell.make("m:f", x=1), salt="t")
        assert key not in cache
        assert cache.put(key, {"answer": 42})
        assert key in cache
        assert cache.get(key) == {"answer": 42}
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key(Cell.make("m:f", x=1), salt="t")
        cache.put(key, 123)
        cache.path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is _MISS

    def test_unpicklable_value_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert not cache.put("ab" + "0" * 62, lambda: None)

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(cell_key(Cell.make("m:f", x=i), salt="t"), i)
        assert cache.clear() == 3
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Engine execution, memoisation, resumability
# ----------------------------------------------------------------------
class TestEngine:
    def cells(self):
        return fig9.SPEC.cells(SCALE)

    def test_serial_executes_and_memoises(self):
        engine = Engine(memo={})
        cells = self.cells()
        first = engine.run_cells(cells)
        assert set(first) == set(cells)
        again = engine.run_cells(cells)
        assert engine.stats.memo_hits == len(cells)
        assert engine.stats.executed == len(cells)
        assert [first[c].elapsed_ns for c in cells] == [
            again[c].elapsed_ns for c in cells
        ]

    def test_disk_cache_survives_process_memo_loss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = self.cells()
        Engine(cache=cache, memo={}).run_cells(cells)
        assert len(cache) == len(cells)
        warm = Engine(cache=cache, memo={})  # fresh memo = "new process"
        warm.run_cells(cells)
        assert warm.stats.executed == 0
        assert warm.stats.disk_hits == len(cells)
        assert warm.stats.hit_rate == 1.0

    def test_interrupted_sweep_resumes(self, tmp_path):
        """A killed run leaves completed cells cached; the rerun only
        executes the remainder."""
        cache = ResultCache(tmp_path)
        cells = self.cells()
        Engine(cache=cache, memo={}).run_cells(cells[:4])  # ... then "killed"
        resumed = Engine(cache=cache, memo={})
        resumed.run_cells(cells)
        assert resumed.stats.disk_hits == 4
        assert resumed.stats.executed == len(cells) - 4

    def test_force_reexecutes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = self.cells()
        Engine(cache=cache, memo={}).run_cells(cells)
        forced = Engine(cache=cache, memo={}, force=True)
        forced.run_cells(cells)
        assert forced.stats.executed == len(cells)
        assert forced.stats.hits == 0

    def test_pool_matches_serial_bytes(self):
        serial = run_spec(fig9.SPEC, scale=SCALE, engine=Engine(jobs=1, memo={}))
        pooled = run_spec(fig9.SPEC, scale=SCALE, engine=Engine(jobs=2, memo={}))
        assert [r.to_text() for r in serial] == [r.to_text() for r in pooled]

    def test_duplicate_cells_run_once(self):
        engine = Engine(memo={})
        cell = self.cells()[0]
        values = run_cells([cell, cell, cell], engine=engine)
        assert engine.stats.executed == 1
        assert values[0] is values[1] is values[2]

    def test_results_are_picklable(self):
        engine = Engine(memo={})
        for value in engine.run_cells(self.cells()).values():
            assert pickle.loads(pickle.dumps(value)).elapsed_ns == value.elapsed_ns

    def test_metrics_counters_advance(self):
        registry = engine_registry()
        executed = registry.get("engine_cells_executed_total").value
        total = registry.get("engine_cells_total").value
        engine = Engine(memo={})
        engine.run_cells(self.cells()[:2])
        assert registry.get("engine_cells_executed_total").value == executed + 2
        assert registry.get("engine_cells_total").value == total + 2

    def test_progress_lines_emitted(self):
        lines = []
        Engine(memo={}, progress=lines.append).run_cells(self.cells()[:2], group="t")
        assert any("2/2 cells to run" in line for line in lines)
        assert any("ran" in line for line in lines)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigError):
            Engine(jobs=0)

    def test_private_memos_replay_every_cell(self, monkeypatch):
        """Two engines with their own memos each replay all of fig9: no
        cache hides beneath the engine's memo and disk layers."""
        from repro.experiments import harness

        built = []
        build = harness.build_runtime

        def count(*args, **kwargs):
            built.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(harness, "build_runtime", count)
        for _ in range(2):
            engine = Engine(memo={})
            run_spec(fig9.SPEC, scale=16384, engine=engine)
            assert engine.stats.executed == 9
        assert len(built) == 18


# ----------------------------------------------------------------------
# ExperimentSpec protocol + deprecation shim
# ----------------------------------------------------------------------
class TestSpecProtocol:
    def test_all_modules_export_specs(self):
        from repro.experiments.runner import EXPERIMENTS, get_spec

        for name in EXPERIMENTS:
            spec = get_spec(name)
            assert isinstance(spec, ExperimentSpec)
            assert spec.name
            cells = spec.cells(SCALE)
            assert all(isinstance(c, Cell) for c in cells)

    def test_unknown_spec_exits(self):
        from repro.experiments.runner import get_spec

        with pytest.raises(SystemExit):
            get_spec("fig99")

    def test_reduce_missing_cell_is_config_error(self):
        results = CellResults({})
        with pytest.raises(ConfigError):
            results[Cell.make("m:f", x=1)]

    def test_legacy_run_shim_is_gone(self):
        """The deprecated ``figN.run(scale=...)`` shims were removed; the
        blessed entry points are run_spec / run_experiment / the CLI."""
        assert not hasattr(fig9, "run")
        assert not hasattr(fig9, "compat_run")

    def test_shared_cells_collapse_across_figures(self):
        """fig8/fig9 share the reuse replays — one engine runs them once."""
        from repro.experiments import fig8

        engine = Engine(memo={})
        run_spec(fig9.SPEC, scale=SCALE, engine=engine)
        executed = engine.stats.executed
        run_spec(fig8.SPEC, scale=SCALE, engine=engine)
        fig8_cells = len(fig8.SPEC.cells(SCALE))
        assert engine.stats.memo_hits >= len(fig9.SPEC.cells(SCALE))
        assert engine.stats.executed < executed + fig8_cells


# ----------------------------------------------------------------------
# Runner CLI wiring
# ----------------------------------------------------------------------
class TestRunnerFailures:
    def _specs(self):
        good = ExperimentSpec(
            name="good",
            cells=lambda scale: [],
            reduce=lambda results, scale: [
                ExperimentResult(name="good", title="ok", headers=["a"], rows=[[1]])
            ],
        )

        def boom(results, scale):
            raise RuntimeError("boom")

        bad = ExperimentSpec(name="bad", cells=lambda scale: [], reduce=boom)
        return {"good": good, "bad": bad}

    def test_failures_collected_and_reported_at_end(self, monkeypatch, capsys):
        from repro.experiments import runner

        specs = self._specs()
        monkeypatch.setattr(runner, "EXPERIMENTS", tuple(specs))
        monkeypatch.setattr(runner, "get_spec", lambda name: specs[name])
        rc = runner.main(["bad", "good", "--no-cache", "--scale", str(SCALE)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "ok" in captured.out  # the good experiment still ran
        assert "bad FAILED" in captured.err
        assert "RuntimeError" in captured.err
        assert "1/2 experiments failed" in captured.err

    def test_all_good_returns_zero(self, monkeypatch, capsys):
        from repro.experiments import runner

        specs = self._specs()
        monkeypatch.setattr(runner, "EXPERIMENTS", ("good",))
        monkeypatch.setattr(runner, "get_spec", lambda name: specs[name])
        assert runner.main(["all", "--no-cache", "--scale", str(SCALE)]) == 0
        assert "[engine]" in capsys.readouterr().out

    def test_flags_do_not_leak_into_the_process(self, monkeypatch, tmp_path):
        from repro.experiments import harness, runner

        specs = self._specs()
        monkeypatch.setattr(runner, "EXPERIMENTS", ("good",))
        monkeypatch.setattr(runner, "get_spec", lambda name: specs[name])
        rc = runner.main(
            ["good", "--no-cache", "--no-ledger", "--scale", str(SCALE),
             "--engine", "scalar", "--check-every", "5000", "--anomaly-scan",
             "--telemetry-dir", str(tmp_path)]
        )
        assert rc == 0
        assert harness.run_options() == harness.RunOptions()

    def test_options_reach_pool_workers(self, tmp_path, capsys):
        """--anomaly-scan and --telemetry-dir must take effect in pool
        workers exactly as on the serial path."""
        from repro.experiments import runner
        from repro.workloads.registry import WORKLOAD_NAMES

        telemetry = tmp_path / "telemetry"
        rc = runner.main(
            ["fig9", "--scale", "16384", "--jobs", "2", "--no-cache",
             "--no-ledger", "--engine", "vector", "--anomaly-scan",
             "--telemetry-dir", str(telemetry)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        scan = [line for line in out.splitlines() if line.startswith("[fig9] anomaly scan:")]
        assert len(scan) == 1 and "finding(s)" in scan[0], out
        for app in WORKLOAD_NAMES:
            for suffix in (".trace.json", ".prom", ".windows.jsonl"):
                assert (telemetry / f"{app}-reuse{suffix}").is_file(), (app, suffix)

    def test_force_rescans_reexecuted_cells(self, capsys):
        from repro.experiments import runner

        rc = runner.main(
            ["fig9", "fig9", "--scale", "16384", "--force", "--no-cache",
             "--no-ledger", "--anomaly-scan"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        scans = [line for line in out.splitlines() if line.startswith("[fig9] anomaly scan:")]
        assert len(scans) == 2 and scans[0] == scans[1] and "finding(s)" in scans[0]
        assert "executed=18" in out

    def test_cache_dir_flag_populates_cache(self, tmp_path, capsys):
        from repro.experiments import runner
        from repro.experiments.engine import clear_memo

        clear_memo()
        rc = runner.main(
            ["fig9", "--scale", str(SCALE), "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        assert len(ResultCache(tmp_path)) == len(fig9.SPEC.cells(SCALE))
        clear_memo()  # warm rerun must hit disk, not the memo
        capsys.readouterr()
        runner.main(["fig9", "--scale", str(SCALE), "--cache-dir", str(tmp_path)])
        assert "disk_hits=9" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Sweep + facade wiring
# ----------------------------------------------------------------------
class TestWiring:
    def test_sweep_runs_through_engine(self):
        from repro.experiments.sweep import sweep_config

        engine = Engine(memo={})
        result = sweep_config(
            "tier3_bias_threshold",
            [0.5, 0.8],
            apps=("srad",),
            scale=SCALE,
            vary_baseline=False,
        )
        engined = sweep_config(
            "tier3_bias_threshold",
            [0.5, 0.8],
            apps=("srad",),
            scale=SCALE,
            vary_baseline=False,
            engine=engine,
        )
        assert engine.stats.cells > 0
        assert result.to_text() == engined.to_text()

    def test_api_facade_surface(self):
        from repro import api

        assert api.RuntimeConfig is api.GMTConfig
        for name in api.__all__:
            assert getattr(api, name) is not None
        results = api.run_experiment("fig9", scale=SCALE, engine=Engine(memo={}))
        assert results and isinstance(results[0], ExperimentResult)

    def test_api_serve(self):
        from repro import api

        outcome = api.serve(["bfs", "pagerank"], scale=SCALE)
        assert len(outcome.tenants) == 2
        assert all(t.slowdown >= 1.0 for t in outcome.tenants)
