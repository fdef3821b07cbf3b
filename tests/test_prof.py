"""Phase profiler: the per-sample fold, attach/detach hygiene, zero cost
when disabled, engine-transparent replays, and the gmt-prof CLI."""

import dataclasses
import json
import random
import signal
import sys
import threading
import tracemalloc

import pytest

import repro.prof
from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError, SimulationError
from repro.experiments.harness import build_runtime, default_config, get_workload
from repro.prof import (
    PHASES,
    PhaseProfiler,
    collapsed_lines,
    diff_profiles,
    format_top,
    load_profile,
    main,
    profile,
    profile_replay,
)


def make_config(**kwargs):
    return GMTConfig(
        tier1_frames=kwargs.pop("tier1", 16),
        tier2_frames=kwargs.pop("tier2", 64),
        policy=kwargs.pop("policy", "reuse"),
        sample_target=200,
        sample_batch=40,
        **kwargs,
    )


def random_pages(n=2000, universe=512, seed=11):
    rng = random.Random(seed)
    return [rng.randrange(universe) for _ in range(n)]


# Call chains for the fold tests: each site calls the next function in
# ``rest``, and the last one folds the live stack.
def dispatch_site(prof, dt, *rest):
    return rest[0](prof, dt, *rest[1:])


def access_site(prof, dt, *rest):
    return rest[0](prof, dt, *rest[1:])


def other_access_site(prof, dt, *rest):
    return rest[0](prof, dt, *rest[1:])


def table_site(prof, dt, *rest):
    return rest[0](prof, dt, *rest[1:])


def unregistered(prof, dt, *rest):
    return rest[0](prof, dt, *rest[1:])


def sample(prof, dt):
    prof._fold_sample(sys._getframe(), dt)


class TestFoldSample:
    @pytest.fixture
    def prof(self):
        prof = PhaseProfiler()
        for fn, phase in (
            (dispatch_site, "dispatch"),
            (access_site, "access"),
            (other_access_site, "access"),
            (table_site, "page-table"),
        ):
            prof._code_phases[fn.__code__] = phase
        return prof

    def test_nested_phases_charge_the_innermost(self, prof):
        dispatch_site(prof, 0.5, access_site, table_site, sample)
        dispatch_site(prof, 0.25, access_site, sample)
        assert dict(prof.self_s) == {"page-table": 0.5, "access": 0.25}
        assert dict(prof.calls) == {"page-table": 1, "access": 1}
        assert dict(prof.stacks) == {
            "dispatch;access;page-table": 0.5,
            "dispatch;access": 0.25,
        }

    def test_adjacent_duplicates_fold(self, prof):
        access_site(prof, 1.0, access_site, other_access_site, sample)
        access_site(prof, 2.0, table_site, access_site, sample)
        assert dict(prof.stacks) == {"access": 1.0, "access;page-table;access": 2.0}
        assert dict(prof.self_s) == {"access": 3.0}

    def test_unregistered_frames_are_skipped(self, prof):
        unregistered(prof, 0.5, access_site, unregistered, table_site, unregistered, sample)
        assert dict(prof.stacks) == {"access;page-table": 0.5}
        assert dict(prof.self_s) == {"page-table": 0.5}

    def test_sample_with_no_phase_is_unattributed(self, prof):
        unregistered(prof, 0.5, sample)
        prof._fold_sample(None, 0.5)
        prof.wall_s = 1.0
        assert not prof.self_s and not prof.stacks and not prof.calls
        assert prof.attributed_s == 0.0
        assert prof.coverage == 0.0


class TestAttachDetach:
    def test_sampled_attach_never_touches_methods(self):
        runtime = GMTRuntime(make_config())
        prof = PhaseProfiler()
        prof.attach(runtime)
        try:
            assert "access_warp" not in vars(runtime)
            assert "lookup" not in vars(runtime.page_table)
            assert runtime._prof is prof
        finally:
            prof.detach()
        assert runtime._prof is None

    def test_detach_restores_the_sigprof_handler_and_timer(self):
        def previous(signum, frame):
            pass

        old = signal.signal(signal.SIGPROF, previous)
        try:
            prof = PhaseProfiler().attach(GMTRuntime(make_config()))
            assert signal.getsignal(signal.SIGPROF) == prof._on_sample
            assert signal.getitimer(signal.ITIMER_PROF)[1] == pytest.approx(prof.interval)
            prof.detach()
            assert signal.getsignal(signal.SIGPROF) is previous
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGPROF, old)

    def test_attach_off_the_main_thread_rejected(self):
        runtime = GMTRuntime(make_config())
        errors = []

        def attach():
            try:
                PhaseProfiler().attach(runtime)
            except ConfigError as exc:
                errors.append(exc)

        worker = threading.Thread(target=attach)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(errors) == 1 and "main thread" in str(errors[0])
        assert runtime._prof is None

    def test_double_attach_rejected_both_sides(self):
        runtime = GMTRuntime(make_config())
        prof = PhaseProfiler()
        prof.attach(runtime)
        try:
            with pytest.raises(ConfigError):
                prof.attach(GMTRuntime(make_config()))
            with pytest.raises(ConfigError):
                PhaseProfiler().attach(runtime)
        finally:
            prof.detach()

    def test_runtime_attach_profiler_helper(self):
        runtime = GMTRuntime(make_config())
        prof = runtime.attach_profiler()
        assert isinstance(prof, PhaseProfiler)
        assert runtime._prof is prof
        runtime.detach_profiler()
        assert runtime._prof is None
        runtime.detach_profiler()  # idempotent

    def test_profiling_does_not_change_results(self):
        pages = random_pages()
        bare = GMTRuntime(make_config())
        for page in pages:
            bare.access(page)
        profiled = GMTRuntime(make_config())
        prof = PhaseProfiler()
        prof.attach(profiled)
        try:
            for page in pages:
                profiled.access(page)
        finally:
            prof.detach()
        assert profiled.stats.t1_hits == bare.stats.t1_hits
        assert profiled.stats.t1_evictions == bare.stats.t1_evictions
        assert profiled.result().elapsed_ns == bare.result().elapsed_ns

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError):
            PhaseProfiler(interval=0.0)


class TestReplayProfiling:
    def _workload(self, n=3000):
        pages = random_pages(n=n)
        from repro.sim.gpu import WarpAccess

        def gen():
            for page in pages:
                yield WarpAccess(pages=(page,), write=False)

        return gen()

    def test_sampled_replay_produces_samples(self):
        runtime = GMTRuntime(make_config())
        prof = PhaseProfiler(interval=1e-4)
        prof, _result = profile_replay(runtime, self._workload(8000), profiler=prof)
        doc = prof.report()
        assert doc["mode"] == "sampled"
        assert prof.accesses == 8000
        # Statistical: every matched sample charges its interval, so on a
        # replay this long attribution should dominate the wall.
        assert doc["phases"], "sampler never landed in a known phase"
        assert set(doc["phases"]) <= set(PHASES)
        assert prof.attributed_s <= prof.wall_s * 1.1

    def test_profile_context_manager(self):
        runtime = GMTRuntime(make_config())
        with profile(runtime) as prof:
            for page in random_pages(n=500):
                runtime.access(page)
        assert runtime._prof is None
        assert prof.wall_s > 0
        assert prof.accesses == 500

    def test_vector_replay_stays_vector_and_matches_unprofiled(self):
        config = dataclasses.replace(default_config(8192), prefetch_degree=2)
        workload = get_workload("hotspot", config)
        bare = build_runtime("reuse", config).run(workload)
        prof, result = profile_replay(build_runtime("reuse", config), workload)
        assert result.stats.as_dict() == bare.stats.as_dict()
        assert result.stats.confusion == bare.stats.confusion
        assert result.elapsed_ns == bare.elapsed_ns
        assert result.stats.prefetch_hits > 0

    def test_column_generation_is_trace_gen(self):
        # Generating the columns, jittering and flattening them all run
        # inside materialize_trace; on a hit-dominated keyvalue replay
        # they are most of the wall.
        from repro.workloads.registry import make_workload

        workload = make_workload("keyvalue", 48, seed=0, lookups=200_000)
        prof, _result = profile_replay(build_runtime("reuse", default_config(4096)), workload)
        assert prof.self_s["trace-gen"] >= 0.5 * prof.wall_s
        assert prof.coverage >= 0.9

    def test_zoo_tier1_profiled_replay_matches_reference(self):
        # A policy-zoo Tier-1 structure rides the batch loop too, and the
        # profiled replay still matches the per-warp reference.
        config = dataclasses.replace(default_config(8192), tier1_eviction="s3fifo")
        workload = get_workload("pagerank", config)
        reference = build_runtime("reuse", config).replay_per_warp(workload)
        prof, result = profile_replay(build_runtime("reuse", config), workload)
        assert result.stats.as_dict() == reference.stats.as_dict()
        assert result.elapsed_ns == reference.elapsed_ns


class TestZeroCostWhenDisabled:
    def test_disabled_runtime_allocates_nothing_in_prof_module(self):
        runtime = GMTRuntime(make_config())
        pages = random_pages(n=1500)
        for page in pages[:200]:  # warm up steady state
            runtime.access(page)
        tracemalloc.start()
        try:
            for page in pages[200:]:
                runtime.access(page)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        snapshot = snapshot.filter_traces(
            [tracemalloc.Filter(True, repro.prof.__file__)]
        )
        assert snapshot.statistics("filename") == []


class TestReporting:
    def _doc(self, **phases):
        total = sum(phases.values())
        return {
            "version": 1,
            "mode": "sampled",
            "wall_s": total,
            "accesses": 1000,
            "accesses_per_sec": 1000 / total if total else 0.0,
            "attributed_s": total,
            "coverage": 1.0,
            "phases": {
                name: {"self_s": s, "calls": 10} for name, s in phases.items()
            },
            "stacks": {name: s for name, s in phases.items()},
        }

    def test_format_top_orders_by_self_time(self):
        text = format_top(self._doc(access=0.1, eviction=0.5))
        eviction_at = text.index("eviction")
        access_at = text.index("access", text.index("% wall"))
        assert eviction_at < access_at
        assert "100.0% attributed" in text
        assert text.startswith("phase profile: wall")

    def test_collapsed_lines_integer_microseconds(self):
        lines = collapsed_lines({"stacks": {"dispatch;access": 0.001234}})
        assert lines == ["dispatch;access 1234"]

    def test_collapsed_drops_zero_rows(self):
        assert collapsed_lines({"stacks": {"dispatch": 1e-9}}) == []

    def test_diff_reports_throughput_and_deltas(self):
        before = self._doc(access=0.4, eviction=0.4)
        after = self._doc(access=0.1, eviction=0.4)
        after["accesses_per_sec"] = 2000.0
        text = diff_profiles(before, after)
        assert "accesses/s" in text
        assert text.startswith("profile diff: 1,250 -> 2,000 accesses/s (1.60x")
        assert "access" in text and "eviction" in text

    def test_load_profile_rejects_non_profile(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(SimulationError):
            load_profile(str(path))


class TestCLI:
    def test_replay_writes_profile_and_collapsed(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        folded = tmp_path / "prof.folded"
        rc = main(
            [
                "hotspot",
                "--runtime",
                "reuse",
                "--scale",
                "4096",
                "--json-out",
                str(out),
                "--collapsed-out",
                str(folded),
                "--min-coverage",
                "0.8",
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "sampled"
        assert "engine" not in doc and "engine_reason" not in doc
        assert doc["coverage"] > 0.8
        assert folded.read_text().strip()
        assert "phase profile: wall" in capsys.readouterr().out

    def test_min_coverage_failure_exits_nonzero(self, tmp_path, capsys):
        rc = main(["hotspot", "--scale", "4096", "--min-coverage", "1.0"])
        captured = capsys.readouterr()
        if rc == 0:  # a fully-attributed run can legitimately pass
            assert "attributed" in captured.out
        else:
            assert "below required" in captured.err

    def test_compare_mode(self, tmp_path, capsys):
        docs = []
        for runtime in ("reuse", "bam"):
            out = tmp_path / f"{runtime}.json"
            assert (
                main(["hotspot", "--runtime", runtime, "--scale", "4096", "--json-out", str(out)])
                == 0
            )
            docs.append(out)
        capsys.readouterr()
        rc = main(["--compare", str(docs[0]), str(docs[1])])
        assert rc == 0
        assert "profile diff: " in capsys.readouterr().out

    def test_compare_reads_pre_change_profile(self, tmp_path, capsys):
        # Profiles written before the engine label was retired carry
        # "engine"/"engine_reason"; --compare still renders them against
        # a new one.
        new = tmp_path / "new.json"
        assert main(["hotspot", "--scale", "4096", "--json-out", str(new)]) == 0
        doc = json.loads(new.read_text())
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            **doc,
            "engine": "vector",
            "engine_reason": "Tier-1 hit runs retire in batches",
        }))
        capsys.readouterr()
        assert main(["--compare", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "profile diff: " in out
        assert "(1.00x throughput)" in out

    def test_exact_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["hotspot", "--exact"])

    def test_workload_required_without_compare(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_runtime_rejected(self):
        with pytest.raises(SystemExit):
            main(["hotspot", "--runtime", "nope"])
