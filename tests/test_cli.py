"""Tests for the command-line tools and result exports."""

import json

import pytest

from repro.cli import main_characterize, main_sim, main_why
from repro.experiments.harness import ExperimentResult
from repro.experiments.runner import main as main_experiments


class TestGmtSim:
    def test_default_runtimes(self, capsys):
        rc = main_sim(["lavamd", "--scale", "8192"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BaM" in out
        assert "GMT-Reuse" in out
        assert "speedup" in out

    def test_runtime_selection(self, capsys):
        rc = main_sim(["pathfinder", "--scale", "8192", "--runtimes", "bam", "hmm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HMM" in out
        assert "GMT-Reuse" not in out

    def test_oversubscription_flag(self, capsys):
        rc = main_sim(["lavamd", "--scale", "8192", "--oversubscription", "4"])
        assert rc == 0
        assert "footprint" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main_sim(["doom"])

    def test_unknown_runtime_rejected(self):
        with pytest.raises(SystemExit):
            main_sim(["lavamd", "--runtimes", "belady"])


class TestGmtCharacterize:
    def test_report_fields(self, capsys):
        rc = main_characterize(["srad", "--scale", "8192"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "page reuse" in out
        assert "Eq. 1 class mix" in out
        assert "Miss-ratio curve" in out

    def test_mrc_points_flag(self, capsys):
        rc = main_characterize(["hotspot", "--scale", "8192", "--mrc-points", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LRU miss ratio" in out


class TestGmtExperiments:
    def test_single_experiment(self, capsys):
        rc = main_experiments(["fig6", "--scale", "8192"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 6(a)" in out
        assert "completed in" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main_experiments(["fig99"])


class TestExperimentResultExport:
    @pytest.fixture
    def result(self):
        return ExperimentResult(
            name="x",
            title="Title",
            headers=["app", "value"],
            rows=[["a", 1.5], ["b", 2.0]],
            notes=["n1"],
        )

    def test_to_csv(self, result):
        csv_text = result.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "app,value"
        assert lines[1] == "a,1.5"

    def test_to_json_roundtrip(self, result):
        data = json.loads(result.to_json())
        assert data["name"] == "x"
        assert data["headers"] == ["app", "value"]
        assert data["rows"][1] == ["b", 2.0]
        assert data["notes"] == ["n1"]


class TestGmtServe:
    def test_two_tenant_mix(self, capsys):
        from repro.cli import main_serve

        rc = main_serve(["--tenants", "bfs,pagerank", "--policy", "reuse",
                         "--scale", "8192"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving 2 tenants" in out
        assert "bfs" in out and "pagerank" in out
        assert "slowdown" in out
        assert "Jain's index" in out

    def test_weights_discipline_and_quotas(self, capsys):
        from repro.cli import main_serve

        rc = main_serve(["--tenants", "bfs:2,hotspot", "--scale", "8192",
                         "--discipline", "weighted-fair", "--quotas", "static",
                         "--no-solo"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "quotas=static" in out
        # --no-solo: no fairness footer.
        assert "Jain's index" not in out

    def test_exports(self, capsys, tmp_path):
        import json

        from repro.cli import main_serve

        trace = tmp_path / "serve.trace.json"
        prom = tmp_path / "serve.prom"
        rc = main_serve(["--tenants", "hotspot,pathfinder", "--scale", "8192",
                         "--no-solo", "--trace-out", str(trace),
                         "--metrics-out", str(prom)])
        assert rc == 0
        events = json.loads(trace.read_text())["traceEvents"]
        lanes = {e["args"]["name"] for e in events if e["name"] == "thread_name"}
        assert any("[hotspot]" in name for name in lanes)
        text = prom.read_text()
        assert 'tenant="hotspot"' in text and 'tenant="pathfinder"' in text

    def test_bad_tenant_weight_rejected(self):
        from repro.cli import main_serve
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main_serve(["--tenants", "bfs:fast", "--scale", "8192"])

    def test_unknown_discipline_rejected(self):
        from repro.cli import main_serve

        with pytest.raises(SystemExit):
            main_serve(["--tenants", "bfs", "--discipline", "lottery"])

    def test_epoch_flag(self, capsys):
        from repro.cli import main_serve

        rc = main_serve(["--tenants", "bfs,hotspot", "--scale", "8192",
                         "--epoch", "4", "--no-solo"])
        assert rc == 0
        assert "serving 2 tenants" in capsys.readouterr().out

    def test_epoch_validation(self, capsys):
        # A bad --epoch is a usage error while parsing, not a ConfigError
        # from the server.
        from repro.cli import main_serve

        with pytest.raises(SystemExit) as exc:
            main_serve(["--tenants", "bfs", "--scale", "8192", "--epoch", "0"])
        assert exc.value.code == 2
        assert "--epoch" in capsys.readouterr().err

    def test_open_loop_run(self, capsys):
        from repro.cli import main_serve

        rc = main_serve(["--open-loop", "64", "--requests", "256",
                         "--arrival-rate", "8192", "--max-backlog", "64",
                         "--scale", "8192", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "open-loop serve: 64 tenants, 256 arrivals" in out
        assert "admitted" in out and "shed" in out

    def test_open_loop_bursty_process(self, capsys):
        from repro.cli import main_serve

        rc = main_serve(["--open-loop", "32", "--requests", "128",
                         "--arrival-process", "bursty",
                         "--arrival-rate", "4096", "--scale", "8192"])
        assert rc == 0
        assert "bursty" in capsys.readouterr().out

    def test_tenants_or_open_loop_required(self):
        from repro.cli import main_serve

        with pytest.raises(SystemExit):
            main_serve(["--scale", "8192"])

    #: A non-default value for each flag only the other mode reads.
    CLOSED_LOOP_ONLY = [
        ["--tenants", "bfs"],
        ["--tier1-policy", "s3fifo"],
        ["--tier2-policy", "s3fifo"],
        ["--governor"],
        ["--governor-rate", "10"],
        ["--governor-burst", "4"],
        ["--governor-stall-ns", "100"],
        ["--discipline", "fifo"],
        ["--quotas", "static"],
        ["--oversubscription", "3"],
        ["--no-solo"],
        ["--trace-out", "{tmp}/x.json"],
        ["--metrics-out", "{tmp}/x.prom"],
        ["--anomaly-scan"],
        ["--anomaly-window", "500"],
        ["--anomaly-thrash", "0.9"],
        ["--anomaly-bypass", "0.9"],
        ["--anomaly-spike", "5"],
    ]
    OPEN_LOOP_ONLY = [
        ["--requests", "8"],
        ["--arrival-process", "bursty"],
        ["--arrival-rate", "100"],
        ["--max-backlog", "4"],
        ["--population-workload", "bfs"],
    ]

    @pytest.mark.parametrize(
        "mode, base, extra",
        [
            pytest.param("open-loop", ["--open-loop", "8"], flag,
                         id=f"open-loop{flag[0]}")
            for flag in CLOSED_LOOP_ONLY
        ]
        + [
            pytest.param("closed-loop", ["--tenants", "bfs"], flag,
                         id=f"closed-loop{flag[0]}")
            for flag in OPEN_LOOP_ONLY
        ],
    )
    def test_flag_the_mode_ignores_is_a_usage_error(
        self, capsys, tmp_path, mode, base, extra
    ):
        # A mode that silently ignored the flag would exit 0 after a
        # full replay, having written nothing the flag asked for.
        from repro.cli import main_serve

        out = tmp_path / "out"
        out.mkdir()
        extra = [arg.format(tmp=out) for arg in extra]
        with pytest.raises(SystemExit) as exc:
            main_serve(base + extra + ["--scale", "65536", "--no-ledger"])
        assert exc.value.code == 2
        assert f"{extra[0]} is not read in {mode} mode" in capsys.readouterr().err
        assert not list(out.iterdir())


class TestGmtWhy:
    SCALE = ["--scale", "8192"]

    def recorded_events(self, tmp_path):
        """One replay exported to JSONL; reused by --from tests."""
        from repro.obs.lifecycle import load_lifecycle_jsonl

        out = tmp_path / "lifecycle.jsonl"
        rc = main_why(
            ["hotspot", *self.SCALE, "residency", "--record-out", str(out)]
        )
        assert rc == 0
        return out, load_lifecycle_jsonl(str(out))

    def test_full_recorder_replays_on_vector(self, capsys, monkeypatch):
        # The full flight recorder leaves gmt-why's replay on the batch
        # loop: pagerank's Tier-1 hit runs still retire in batches.
        from repro.core.runtime import GMTRuntime

        batches = []
        batch_hits = GMTRuntime._batch_hits

        def recording_batch(runtime, chunk, writes):
            batches.append(len(chunk))
            batch_hits(runtime, chunk, writes)

        monkeypatch.setattr(GMTRuntime, "_batch_hits", recording_batch)
        rc = main_why(["pagerank", *self.SCALE, "top"])
        assert rc == 0
        assert batches
        assert capsys.readouterr().out.startswith("top 10 pages")

    def test_page_journey_reconstructed_with_causes(self, capsys):
        # Deterministic replay: find a real faulted page first, then ask
        # the CLI to explain it.
        from repro.obs.lifecycle import FILL_KINDS, load_lifecycle_jsonl

        rc = main_why(["hotspot", *self.SCALE, "top"])
        assert rc == 0
        capsys.readouterr()

        from repro.experiments.harness import build_runtime, default_config, get_workload
        from repro.obs import Telemetry

        config = default_config(8192)
        runtime = build_runtime("reuse", config)
        telemetry = Telemetry(lifecycle=True)
        runtime.attach_telemetry(telemetry)
        runtime.run(get_workload("hotspot", config, seed=0))
        fill = next(e for e in telemetry.lifecycle if e.kind in FILL_KINDS)

        rc = main_why(["hotspot", *self.SCALE, "page", str(fill.page)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"page {fill.page}:" in out
        assert "admit" in out
        assert "cause=" in out

    def test_miss_explained_with_cause(self, capsys):
        from repro.experiments.harness import build_runtime, default_config, get_workload
        from repro.obs import Telemetry
        from repro.obs.lifecycle import FILL_KINDS

        config = default_config(8192)
        runtime = build_runtime("reuse", config)
        telemetry = Telemetry(lifecycle=True)
        runtime.attach_telemetry(telemetry)
        runtime.run(get_workload("hotspot", config, seed=0))
        fill = next(e for e in telemetry.lifecycle if e.kind in FILL_KINDS)

        rc = main_why(["hotspot", *self.SCALE, "miss", str(fill.access)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"access {fill.access}:" in out
        assert f"page {fill.page}" in out
        assert "cause" in out or "verdict" in out

    def test_miss_on_a_hit_says_so(self, capsys):
        rc = main_why(["hotspot", *self.SCALE, "miss", "0"])
        assert rc == 0
        assert "no recorded Tier-1 fill" in capsys.readouterr().out

    def test_top_residency_outcomes_render_tables(self, capsys):
        for query, marker in (
            ("top", "SSD I/O"),
            ("residency", "tier"),
            ("outcomes", "outcome"),
        ):
            rc = main_why(["hotspot", *self.SCALE, query])
            assert rc == 0
            assert marker in capsys.readouterr().out

    def test_anomalies_query_runs(self, capsys):
        rc = main_why(["hotspot", *self.SCALE, "anomalies", "--window", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "anomalies" in out or "thrash" in out or "bypass" in out or "latency" in out

    def test_record_out_then_from_round_trip(self, capsys, tmp_path):
        out, events = self.recorded_events(tmp_path)
        assert events  # the export captured the replay
        capsys.readouterr()
        rc = main_why(["hotspot", *self.SCALE, "page", str(events[0].page),
                       "--from", str(out)])
        assert rc == 0
        assert f"page {events[0].page}:" in capsys.readouterr().out

    def test_anomalies_rejected_with_from(self, tmp_path):
        out, _ = self.recorded_events(tmp_path)
        with pytest.raises(SystemExit):
            main_why(["hotspot", *self.SCALE, "anomalies", "--from", str(out)])

    def test_page_query_requires_argument(self):
        with pytest.raises(SystemExit):
            main_why(["hotspot", *self.SCALE, "page"])

    def test_ring_capacity_note_printed_when_dropping(self, capsys):
        rc = main_why(["hotspot", *self.SCALE, "residency", "--capacity", "64"])
        assert rc == 0
        assert "dropped" in capsys.readouterr().out


class TestGmtSimLifecycleOut:
    def test_lifecycle_export(self, capsys, tmp_path):
        path = tmp_path / "lc.jsonl"
        rc = main_sim(["lavamd", "--scale", "8192", "--runtimes", "reuse",
                       "--lifecycle-out", str(path)])
        assert rc == 0
        assert "lifecycle events" in capsys.readouterr().out
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines
        assert all(l["runtime"] == "reuse" for l in lines)
        assert {"kind", "page", "access", "cause"} <= set(lines[0])
