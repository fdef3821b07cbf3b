"""Tests for the differential/metamorphic harness (repro.check.differential)."""

import pytest

from repro.check.differential import (
    DEFAULT_RUNTIMES,
    INJECTIONS,
    check_degenerate_bam,
    check_determinism,
    check_solo_serve,
    run_conformance,
)
from repro.errors import ConfigError
from repro.experiments.harness import default_config, get_workload
from tests.conftest import record_batches

SCALE = 8192


class TestRunConformance:
    def test_clean_run_is_ok(self):
        report = run_conformance("hotspot", scale=SCALE)
        assert report.ok
        assert {run.kind for run in report.runs} == set(DEFAULT_RUNTIMES)
        assert "cross-runtime-trace" in report.checks_run
        assert "metamorphic-degenerate-bam" in report.checks_run
        assert "metamorphic-determinism" in report.checks_run
        assert "metamorphic-solo-serve" in report.checks_run

    def test_prefetch_and_queueing_clean(self):
        report = run_conformance(
            "bfs",
            scale=SCALE,
            prefetch_degree=2,
            time_model="queueing",
            metamorphic=False,
            serve=False,
        )
        assert report.ok

    def test_periodic_checks_wired(self):
        report = run_conformance(
            "hotspot", scale=SCALE, check_every=200, metamorphic=False, serve=False
        )
        assert report.ok

    def test_audited_vector_replays_run_on_vector(self, monkeypatch):
        # gmt-check --check-every N: the audited replays batch their
        # hit runs, and the in-run audits fire on the batch loop.
        from repro.check import differential

        batches, audits = [], []
        build = differential.build_runtime

        def capture(*args, **kwargs):
            runtime = build(*args, **kwargs)
            check = runtime._periodic_check

            def counted_check():
                audits.append(runtime.stats.coalesced_accesses)
                check()

            runtime._periodic_check = counted_check
            batches.append(record_batches(runtime))
            return runtime

        monkeypatch.setattr(differential, "build_runtime", capture)
        # PageRank's Tier-1 hit runs batch in every runtime.
        report = run_conformance(
            "pagerank", scale=SCALE, check_every=500,
            engines=False, telemetry=False, metamorphic=False, serve=False,
        )
        assert report.ok
        assert len(batches) == len(DEFAULT_RUNTIMES)
        assert all(batches)
        assert audits and all(position % 500 == 0 for position in audits)

    def test_flags_prune_checks(self):
        report = run_conformance(
            "hotspot", scale=SCALE, metamorphic=False, serve=False
        )
        assert "metamorphic-determinism" not in report.checks_run
        assert "metamorphic-solo-serve" not in report.checks_run

    def test_summary_lines_render(self):
        report = run_conformance(
            "hotspot", scale=SCALE, metamorphic=False, serve=False
        )
        text = "\n".join(report.summary_lines())
        assert "OK" in text or "ok" in text


class TestInjections:
    @pytest.mark.parametrize("fault", sorted(INJECTIONS))
    def test_every_injection_detected(self, fault):
        # ghost-leak corrupts the S3-FIFO ghost queue, so one has to be
        # in the matrix for that fault.
        extra = {"tier1_policy": "s3fifo"} if fault == "ghost-leak" else {}
        report = run_conformance(
            "hotspot",
            scale=SCALE,
            inject=fault,
            metamorphic=False,
            serve=False,
            **extra,
        )
        assert not report.ok
        assert report.injected
        assert report.violations

    def test_unknown_injection_rejected(self):
        with pytest.raises(ConfigError):
            run_conformance("hotspot", scale=SCALE, inject="not-a-fault")

    def test_dup_resident_needs_tier2(self):
        with pytest.raises(ConfigError):
            run_conformance(
                "hotspot",
                scale=SCALE,
                runtimes=("bam",),
                inject="dup-resident",
                metamorphic=False,
                serve=False,
            )


class TestMetamorphicChecks:
    def test_degenerate_bam_identity_holds(self):
        config = default_config(SCALE)
        workload = get_workload("hotspot", config, seed=0)
        assert check_degenerate_bam(config, workload) == []

    def test_determinism_holds(self):
        config = default_config(SCALE)
        workload = get_workload("hotspot", config, seed=0)
        assert check_determinism("reuse", config, workload) == []

    def test_solo_serve_holds(self):
        config = default_config(SCALE)
        assert check_solo_serve("bfs", config, 2.0, 0) == []
