"""Run ledger: append/read round-trip, drift detection, gmt-bench --trend."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import ledger as ledger_mod
from repro.obs.ledger import (
    Drift,
    append_entry,
    config_hash,
    detect_drift,
    format_trend,
    ledger_path,
    make_entry,
    read_ledger,
    record_run,
    scan_trend,
)


class TestEntries:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        entry = record_run(
            "gmt-bench",
            wall_s=1.5,
            params={"scale": 4096},
            accesses_per_sec=12_345.0,
            metrics={"elapsed_ns": 1e9},
            anomalies=2,
            path=path,
        )
        assert entry["tool"] == "gmt-bench"
        assert entry["config_hash"] == config_hash({"scale": 4096})
        assert len(entry["code_salt"]) == 16
        back = read_ledger(path)
        assert back == [entry]

    def test_append_only(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        for i in range(3):
            record_run("gmt-serve", wall_s=float(i), path=path)
        walls = [e["wall_s"] for e in read_ledger(path)]
        assert walls == [0.0, 1.0, 2.0]

    def test_tool_and_config_filters(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        record_run("gmt-bench", wall_s=1.0, params={"scale": 1}, path=path)
        record_run("gmt-serve", wall_s=2.0, params={"scale": 1}, path=path)
        record_run("gmt-bench", wall_s=3.0, params={"scale": 2}, path=path)
        assert len(read_ledger(path)) == 3
        assert len(read_ledger(path, tool="gmt-bench")) == 2
        only = read_ledger(path, tool="gmt-bench", config=config_hash({"scale": 2}))
        assert [e["wall_s"] for e in only] == [3.0]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_ledger(str(tmp_path / "absent.jsonl")) == []

    def test_malformed_lines_skipped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_entry(make_entry("gmt-bench", wall_s=1.0), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated by a crash\n")
            fh.write('"a bare string"\n')
            fh.write("\n")
        append_entry(make_entry("gmt-bench", wall_s=2.0), path)
        assert [e["wall_s"] for e in read_ledger(path)] == [1.0, 2.0]

    def test_env_var_resolution(self, tmp_path, monkeypatch):
        target = str(tmp_path / "env.jsonl")
        monkeypatch.setenv(ledger_mod.LEDGER_ENV_VAR, target)
        assert ledger_path() == target
        record_run("gmt-bench", wall_s=1.0)
        assert len(read_ledger()) == 1
        # Explicit path still wins over the env var.
        assert ledger_path("/x/y.jsonl") == "/x/y.jsonl"

    def test_tool_required(self):
        with pytest.raises(ConfigError):
            make_entry("", wall_s=1.0)

    def test_entry_is_json_serialisable(self):
        json.dumps(make_entry("gmt-bench", wall_s=0.5, params={"k": (1, 2)}))


class TestDriftDetection:
    def test_steady_series(self):
        assert detect_drift([1.0] * 10) is None

    def test_insufficient_data(self):
        assert detect_drift([]) is None
        assert detect_drift([1.0]) is None
        assert detect_drift([1.0, 2.0]) is None  # baseline would be empty

    def test_sustained_regression_detected(self):
        values = [1.0] * 8 + [1.5, 1.6]
        hit = detect_drift(values, threshold=0.25, sustain=2)
        assert hit is not None
        median, latest = hit
        assert median == 1.0
        assert latest == 1.6

    def test_sustained_improvement_also_flagged(self):
        # A silent speedup is still an unexplained change.
        assert detect_drift([1.0] * 8 + [0.5, 0.4]) is not None

    def test_single_spike_not_flagged(self):
        # One bad run (noisy CI box) must never trip the gate.
        assert detect_drift([1.0] * 9 + [3.0]) is None

    def test_mixed_directions_not_flagged(self):
        assert detect_drift([1.0] * 8 + [2.0, 0.2]) is None

    def test_rolling_window_forgets_ancient_history(self):
        # Regressed long ago and stabilised: the rolling median has
        # caught up, so it is the new normal, not drift.
        values = [1.0] * 5 + [2.0] * 12
        assert detect_drift(values, window=8) is None

    def test_threshold_respected(self):
        values = [1.0] * 8 + [1.1, 1.1]
        assert detect_drift(values, threshold=0.25) is None
        assert detect_drift(values, threshold=0.05) is not None

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            detect_drift([1.0], window=0)
        with pytest.raises(ConfigError):
            detect_drift([1.0], threshold=0.0)
        with pytest.raises(ConfigError):
            detect_drift([1.0], sustain=0)


class TestTrendReport:
    def entries(self, walls, tool="gmt-bench"):
        return [
            make_entry(tool, wall_s=w, accesses_per_sec=1000.0 / w, salt="s")
            for w in walls
        ]

    def test_scan_trend_names_the_metric(self):
        drifts = scan_trend(self.entries([1.0] * 8 + [2.0, 2.1]))
        assert {d.metric for d in drifts} == {"wall_s", "accesses_per_sec"}
        wall = next(d for d in drifts if d.metric == "wall_s")
        assert isinstance(wall, Drift)
        assert wall.rel_delta > 0.25

    def test_format_trend_steady(self):
        report, drifts = format_trend(self.entries([1.0] * 6))
        assert drifts == []
        assert "steady" in report
        assert "6 run(s)" in report

    def test_format_trend_drifting(self):
        report, drifts = format_trend(self.entries([1.0] * 8 + [2.0, 2.1]))
        assert drifts
        assert "DRIFT" in report

    def test_format_trend_empty(self):
        report, drifts = format_trend([])
        assert drifts == []
        assert "empty" in report


class TestBenchTrendCLI:
    def bench_params(self, scale=4096, seed=0):
        from repro.bench import DEFAULT_CELLS, ENGINE_CELLS, OPENLOOP_CELL, ZOO_CELLS

        return {
            "cells": sorted(
                [f"{app}/{kind}" for app, kind in DEFAULT_CELLS]
                + [f"{app}/{kind}+{pol}" for app, kind, pol in ZOO_CELLS]
                + [
                    f"{spec['id']}@{eng}"
                    for spec in ENGINE_CELLS
                    for eng in ("scalar", "vector")
                ]
                + [OPENLOOP_CELL["id"]]
            ),
            "scale": scale,
            "seed": seed,
        }

    def seed_ledger(self, walls, scale=4096):
        params = self.bench_params(scale=scale)
        for w in walls:
            entry = make_entry(
                "gmt-bench", wall_s=w, params=params,
                accesses_per_sec=1000.0 / w, salt="s",
            )
            append_entry(entry)

    def test_trend_passes_on_steady_ledger(self, capsys):
        from repro.bench import main

        self.seed_ledger([1.0, 1.01, 0.99, 1.0])
        assert main(["--trend"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "4 run(s)" in out

    def test_trend_fails_on_sustained_drift(self, capsys):
        from repro.bench import main

        self.seed_ledger([1.0] * 8 + [2.0, 2.1])
        assert main(["--trend"]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_trend_on_empty_ledger(self, capsys):
        from repro.bench import main

        assert main(["--trend"]) == 2
        assert "empty" in capsys.readouterr().out

    def test_entries_with_engine_label_trend_with_newer_ones(self, capsys):
        # Entries written before the engine label was retired carry an
        # "engine" field.  The config hash never included it, so older
        # and newer runs form one trajectory.
        from repro.bench import main

        params = self.bench_params()
        for w in (1.0, 1.02, 0.98, 1.01):
            entry = make_entry(
                "gmt-bench", wall_s=w, params=params,
                accesses_per_sec=1000.0 / w, salt="s",
            )
            append_entry({**entry, "engine": "vector"})
        self.seed_ledger([0.99, 1.0, 1.02])
        entries = read_ledger(tool="gmt-bench")
        assert ["engine" in e for e in entries] == [True] * 4 + [False] * 3
        assert {e["config_hash"] for e in entries} == {config_hash(params)}
        assert main(["--trend"]) == 0
        out = capsys.readouterr().out
        assert "7 run(s)" in out
        assert "DRIFT" not in out and "PASS" in out

    def test_trend_ignores_other_configs(self, capsys):
        from repro.bench import main

        self.seed_ledger([1.0] * 8, scale=4096)
        self.seed_ledger([9.0, 9.1], scale=128)  # different config hash
        assert main(["--trend"]) == 0
        assert "8 run(s)" in capsys.readouterr().out

    @staticmethod
    def skip_unread_cells(monkeypatch):
        """Drop the engine cells and shrink the open-loop cell: these
        tests read the ledger, not what those cells measure."""
        from repro import bench

        monkeypatch.setattr(bench, "ENGINE_CELLS", ())
        monkeypatch.setattr(
            bench, "OPENLOOP_CELL", {**bench.OPENLOOP_CELL, "tenants": 4, "requests": 16}
        )

    def test_bench_records_ledger_entry(self, monkeypatch):
        from repro import bench

        self.skip_unread_cells(monkeypatch)
        assert bench.main(["--scale", "32768"]) == 0
        entries = read_ledger(tool="gmt-bench")
        assert len(entries) == 1
        assert entries[0]["accesses_per_sec"] > 0
        assert entries[0]["metrics"]["elapsed_ns"] > 0
        # Back-to-back identical runs then --trend: the CI recipe.
        assert bench.main(["--scale", "32768"]) == 0
        assert bench.main(["--scale", "32768", "--trend"]) == 0

    def test_no_ledger_opt_out(self, monkeypatch):
        from repro import bench

        self.skip_unread_cells(monkeypatch)
        assert bench.main(["--scale", "32768", "--no-ledger"]) == 0
        assert read_ledger() == []


class TestServeLedger:
    def test_serve_records_entry_with_anomalies(self):
        from repro.cli import main_serve

        assert (
            main_serve(
                [
                    "--tenants", "bfs",
                    "--scale", "16384",
                    "--no-solo",
                    "--anomaly-scan",
                    "--slo-p99", "1",  # 1 ns: guaranteed violation
                ]
            )
            == 0
        )
        entries = read_ledger(tool="gmt-serve")
        assert len(entries) == 1
        entry = entries[0]
        assert entry["metrics"]["tenants"] == 1.0
        assert entry["metrics"]["slo_violations"] >= 1.0
        assert entry["accesses_per_sec"] > 0
        assert entry["anomalies"] >= 0
