"""gmt-bench: baseline record/check, injected regressions must fail."""

import copy
import json

import pytest

import repro.bench as bench


CELLS = (("bfs", "reuse"),)  # one small cell keeps these tests quick

#: A 4-tenant stand-in for the 1k-tenant open-loop cell.
TINY_OPENLOOP = {
    "id": "serve/openloop-tiny",
    "tenants": 4,
    "requests": 16,
    "arrival_rate_per_s": 256.0,
    "max_backlog": 256,
}


@pytest.fixture
def baseline():
    return bench.run_bench(cells=CELLS, scale=4096, seed=0)


@pytest.fixture
def small_matrix(monkeypatch):
    """gmt-bench's CLI over one gated cell: no zoo or engine cells and a
    tiny open-loop cell, which these tests never read."""
    monkeypatch.setattr(bench, "DEFAULT_CELLS", CELLS)
    monkeypatch.setattr(bench, "ZOO_CELLS", ())
    monkeypatch.setattr(bench, "ENGINE_CELLS", ())
    monkeypatch.setattr(bench, "OPENLOOP_CELL", TINY_OPENLOOP)


class TestRecord:
    def test_cells_and_metrics_present(self, baseline):
        assert set(baseline["cells"]) == {"bfs/reuse"}
        record = baseline["cells"]["bfs/reuse"]
        for metric in bench.SIM_METRICS:
            assert metric in record
        assert record["wall_s"] > 0
        assert record["elapsed_ns"] > 0

    def test_simulated_metrics_deterministic(self, baseline):
        again = bench.run_bench(cells=CELLS, scale=4096, seed=0)
        for metric in bench.SIM_METRICS:
            assert again["cells"]["bfs/reuse"][metric] == (
                baseline["cells"]["bfs/reuse"][metric]
            )


class TestCompare:
    def test_identical_run_passes(self, baseline):
        current = bench.run_bench(cells=CELLS, scale=4096, seed=0)
        assert bench.compare(baseline, current) == []

    def test_metric_drift_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["cells"]["bfs/reuse"]["ssd_page_reads"] *= 1.10
        problems = bench.compare(baseline, current)
        assert len(problems) == 1
        assert "ssd_page_reads" in problems[0]

    def test_small_drift_within_tolerance_passes(self, baseline):
        current = copy.deepcopy(baseline)
        current["cells"]["bfs/reuse"]["elapsed_ns"] *= 1.005
        assert bench.compare(baseline, current, tolerance=0.01) == []

    def test_wall_clock_regression_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["cells"]["bfs/reuse"]["wall_s"] = (
            baseline["cells"]["bfs/reuse"]["wall_s"] * 20 + 1.0
        )
        problems = bench.compare(baseline, current, wall_tolerance=5.0)
        assert any("wall_s" in p for p in problems)

    def test_wall_clock_improvement_never_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["cells"]["bfs/reuse"]["wall_s"] = 0.0
        assert bench.compare(baseline, current) == []

    def test_missing_cell_reported(self, baseline):
        current = copy.deepcopy(baseline)
        del current["cells"]["bfs/reuse"]
        problems = bench.compare(baseline, current)
        assert problems == ["bfs/reuse: missing from current run"]

    def test_geometry_mismatch_short_circuits(self, baseline):
        current = copy.deepcopy(baseline)
        current["scale"] = 1024
        problems = bench.compare(baseline, current)
        assert len(problems) == 1 and "geometry mismatch" in problems[0]


class TestInformationalCells:
    """Policy-zoo cells ride the baseline without gating its budgets."""

    @pytest.fixture(scope="class")
    def zoo_doc(self):
        return bench.run_bench(
            cells=(), scale=4096, seed=0, zoo=(("bfs", "reuse", "s3fifo"),)
        )

    def test_zoo_matrix_covers_every_policy(self):
        from repro.policyzoo import ZOO_POLICY_NAMES

        assert [pol for _, _, pol in bench.ZOO_CELLS] == list(ZOO_POLICY_NAMES)

    def test_cell_id_and_marker(self, zoo_doc):
        record = zoo_doc["cells"]["bfs/reuse+s3fifo"]
        assert record["informational"] is True
        for metric in bench.SIM_METRICS:
            assert metric in record

    def test_metric_drift_is_not_gated(self, zoo_doc):
        current = copy.deepcopy(zoo_doc)
        current["cells"]["bfs/reuse+s3fifo"]["elapsed_ns"] *= 3.0
        assert bench.compare(zoo_doc, current) == []

    def test_missing_informational_cell_still_reported(self, zoo_doc):
        current = copy.deepcopy(zoo_doc)
        del current["cells"]["bfs/reuse+s3fifo"]
        problems = bench.compare(zoo_doc, current)
        assert problems == ["bfs/reuse+s3fifo: missing from current run"]


class TestOpenLoopCell:
    """The 1k-tenant open-loop serve cell rides the baseline as an
    informational cell with serving-side metrics attached."""

    @pytest.fixture(scope="class")
    def doc(self):
        spec = dict(bench.OPENLOOP_CELL, tenants=64, requests=256,
                    arrival_rate_per_s=4096.0)
        return bench.run_bench(cells=(), scale=4096, seed=0,
                               openloop_cells=(spec,))

    def test_default_spec_is_service_scale(self):
        assert bench.OPENLOOP_CELL["tenants"] >= 1024

    def test_cell_id_marker_and_metrics(self, doc):
        record = doc["cells"]["serve/openloop-1k"]
        assert record["informational"] is True
        for metric in bench.SIM_METRICS:
            assert metric in record
        assert record["requests_arrived"] == 256.0
        assert "shed_rate" in record

    def test_metric_drift_is_not_gated(self, doc):
        current = copy.deepcopy(doc)
        current["cells"]["serve/openloop-1k"]["elapsed_ns"] *= 3.0
        assert bench.compare(doc, current) == []


class TestCLI:
    @pytest.mark.usefixtures("small_matrix")
    def test_record_then_check_passes(self, tmp_path, capsys):
        path = tmp_path / "BENCH_baseline.json"
        assert bench.main(["--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert "bfs/reuse" in doc["cells"]
        assert bench.main(["--check", "--baseline", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.usefixtures("small_matrix")
    def test_injected_slowdown_fails_the_gate(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "BENCH_baseline.json"
        assert bench.main(["--out", str(path)]) == 0

        # Inject an artificial 100x wall-clock slowdown through the
        # module clock hook: each _clock() call advances a fake timer.
        fake = {"now": 0.0}

        def slow_clock():
            fake["now"] += 60.0  # one minute per sample => huge wall_s
            return fake["now"]

        monkeypatch.setattr(bench, "_clock", slow_clock)
        rc = bench.main(
            ["--check", "--baseline", str(path), "--wall-tolerance", "5"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "wall_s" in out

    @pytest.mark.usefixtures("small_matrix")
    def test_injected_behaviour_change_fails_the_gate(self, tmp_path, capsys):
        path = tmp_path / "BENCH_baseline.json"
        assert bench.main(["--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["cells"]["bfs/reuse"]["ssd_page_reads"] += 100
        path.write_text(json.dumps(doc))
        rc = bench.main(["--check", "--baseline", str(path)])
        assert rc == 1
        assert "ssd_page_reads" in capsys.readouterr().out

    @pytest.mark.usefixtures("small_matrix")
    def test_missing_baseline_is_a_distinct_error(self, tmp_path, capsys):
        rc = bench.main(["--check", "--baseline", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_missing_baseline_fails_before_replaying(
        self, tmp_path, monkeypatch, capsys
    ):
        def replayed(*args, **kwargs):
            raise AssertionError("replayed before reading the baseline")

        monkeypatch.setattr(bench, "run_bench", replayed)
        rc = bench.main(["--check", "--baseline", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "baseline not found" in capsys.readouterr().err

    def test_committed_baseline_matches_current_behaviour(self, capsys):
        # The repo's committed baseline must stay in sync with the
        # simulator: this is the same check CI's bench-gate runs (with a
        # wide wall budget; the simulated metrics are the real gate).
        rc = bench.main(
            [
                "--check",
                "--baseline",
                "benchmarks/BENCH_baseline.json",
                "--wall-tolerance",
                "50",
            ]
        )
        assert rc == 0, capsys.readouterr().out
