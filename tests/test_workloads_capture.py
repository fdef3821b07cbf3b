"""Unit tests for trace capture/replay."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workloads.capture import RecordedWorkload, load_trace, save_trace
from repro.workloads.registry import make_workload


@pytest.fixture
def small_workload():
    return make_workload("pathfinder", 200, jitter_warps=16)


class TestSaveTrace:
    def test_summary(self, small_workload, tmp_path):
        path = tmp_path / "trace.npz"
        summary = save_trace(small_workload, path)
        assert summary["warps"] == sum(1 for _ in small_workload)
        assert summary["bytes"] > 0
        assert path.exists()

    def test_empty_trace_rejected(self, tmp_path):
        from repro.workloads.trace import WarpColumns, Workload

        class Empty(Workload):
            name = "empty"

            def columns(self):
                return WarpColumns([], [], [])

        with pytest.raises(TraceError):
            save_trace(Empty(footprint_pages=1), tmp_path / "x.npz")


class TestLoadTrace:
    def test_roundtrip_exact(self, small_workload, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(small_workload, path)
        replay = load_trace(path)
        original = [(w.pages, w.write) for w in small_workload]
        recorded = [(w.pages, w.write) for w in replay]
        assert original == recorded

    def test_metadata_preserved(self, small_workload, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(small_workload, path)
        replay = load_trace(path)
        assert replay.name == small_workload.name
        assert replay.footprint_pages == small_workload.footprint_pages

    def test_replay_is_reiterable(self, small_workload, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(small_workload, path)
        replay = load_trace(path)
        assert list(replay.coalesced_pages()) == list(replay.coalesced_pages())

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "nope.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, pages=np.array([1, 2]))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_runtime_results_identical(self, small_workload, tmp_path):
        from repro.core.config import GMTConfig
        from repro.core.runtime import GMTRuntime

        path = tmp_path / "trace.npz"
        save_trace(small_workload, path)
        replay = load_trace(path)
        cfg = GMTConfig(
            tier1_frames=16, tier2_frames=64, sample_target=100, sample_batch=20
        )
        a = GMTRuntime(cfg).run(small_workload)
        b = GMTRuntime(cfg).run(replay)
        assert a.elapsed_ns == b.elapsed_ns
        assert a.stats.as_dict() == b.stats.as_dict()


class TestRecordedWorkload:
    def test_corrupt_lengths_detected(self):
        with pytest.raises(TraceError):
            RecordedWorkload(
                pages=np.array([1, 2, 3], dtype=np.int64),
                lengths=np.array([2, 2], dtype=np.int32),
                writes=np.array([False, True]),
                meta={"name": "x", "footprint_pages": 4},
            )

    def test_num_warps(self, small_workload, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(small_workload, path)
        replay = load_trace(path)
        assert replay.num_warps == sum(1 for _ in small_workload)
