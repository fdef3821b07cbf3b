"""Warp columns: the one trace format every workload emits.

Covers the column value's validation, the trace builder, the jitter's
index shuffle against the per-warp object shuffle it replaced (kept
verbatim below as the oracle), the vectorized flattening against
per-warp coalescing, lock entries for the zipf microbenchmark and for a
capture round trip, and a deterministic cost guard on generation.
"""

import cProfile
import hashlib
import json
import pstats
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.vector import materialize_trace
from repro.errors import TraceError
from repro.sim.gpu import WarpAccess, coalesce
from repro.workloads.capture import load_trace, save_trace
from repro.workloads.registry import EXTRA_WORKLOAD_NAMES, WORKLOAD_NAMES, make_workload
from repro.workloads.synthetic import ZipfAccessGenerator
from repro.workloads.trace import (
    JitteredWorkload,
    TraceBuilder,
    WarpColumns,
    Workload,
    jitter_order,
)


def object_shuffle(warps, window, seed):
    """The per-warp object shuffle ``JitteredWorkload.generate`` ran
    before traces became columns, verbatim: the oracle for
    :func:`jitter_order`."""
    import random

    rng = random.Random((seed << 8) ^ 0x5EED)
    buffer = []
    for warp in warps:
        buffer.append(warp)
        if len(buffer) >= window:
            idx = rng.randrange(len(buffer))
            buffer[idx], buffer[-1] = buffer[-1], buffer[idx]
            yield buffer.pop()
    while buffer:
        idx = rng.randrange(len(buffer))
        buffer[idx], buffer[-1] = buffer[-1], buffer[idx]
        yield buffer.pop()


def lane_fingerprint(warps) -> str:
    """SHA-256 over each warp's write flag, lane count and lanes (not
    coalesced: Figure 6 counts lanes), in trace order."""
    digest = hashlib.sha256()
    for warp in warps:
        digest.update(
            struct.pack(f"<?I{len(warp.pages)}q", warp.write, len(warp.pages), *warp.pages)
        )
    return digest.hexdigest()[:16]


def capture_fingerprint(path) -> str:
    """SHA-256 over a capture file's keys, dtypes and array bytes."""
    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        for key in sorted(data.files):
            array = data[key]
            digest.update(key.encode())
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def per_warp_flattening(workload):
    """The coalesced stream of ``iter(workload)``, one warp at a time."""
    pages, writes, warps = [], [], []
    for number, warp in enumerate(workload, start=1):
        for page in coalesce(warp):
            pages.append(page)
            writes.append(warp.write)
            warps.append(number)
    return pages, writes, warps


class _Warps(Workload):
    name = "warps"

    def __init__(self, warps):
        super().__init__(1 + max((p for w in warps for p in w.pages), default=0))
        self._warps = warps

    def columns(self):
        return WarpColumns.from_warps(self._warps)


#: ``(footprint, num_warps, skew, lanes, write_fraction, seed)`` ->
#: :func:`lane_fingerprint` of ``ZipfAccessGenerator``, recorded before
#: traces became columns.
ZIPF_LOCK = {
    (79, 200, 0.0, 32, 0.0, 0): "7abb9f030792a7e2",
    (79, 200, 0.0, 32, 0.0, 1): "7100d38692fe3598",
    (640, 300, 0.99, 32, 0.25, 0): "9924fce3df54ecf8",
    (640, 300, 0.99, 32, 0.25, 1): "b1c2fc2b48b0f757",
    (40, 500, 1.0, 7, 0.5, 3): "4bf8346231ba1f75",
    (4096, 3000, 0.6, 32, 0.0, 7): "d2f31753a80f72c4",
}

#: ``(name, footprint, seed)`` -> (:func:`capture_fingerprint` of the
#: saved file, :func:`lane_fingerprint` of the loaded replay), recorded
#: before traces became columns.
CAPTURE_LOCK = {
    ("srad", 144, 0): ("b061f4116e85013e", "18a64f0b1d5c928e"),
    ("bfs", 144, 1): ("71be3bcfb88fc910", "830dafbbf5b6dcb4"),
    ("keyvalue", 640, 0): ("bab76eedc6800887", "cfd361eb60c66c04"),
    ("pagerank", 79, 1): ("99dc977c3d6c8e08", "b34414f68e69230b"),
}


class TestValidation:
    """``WarpAccess``'s own error cases, raised once per trace and naming
    the warp."""

    def test_zero_lane_warp(self):
        with pytest.raises(TraceError, match="warp 1: a warp access needs at least one"):
            WarpColumns([1, 2], [2, 0], [False, False])

    def test_33_lane_warp(self):
        with pytest.raises(TraceError, match="warp 1: a warp has at most 32 lanes, got 33"):
            WarpColumns(list(range(34)), [1, 33], [False, True])

    def test_negative_page_id(self):
        with pytest.raises(TraceError, match="warp 1: negative page id -3"):
            WarpColumns([1, 2, -3, 4], [1, 2, 1], [False, True, False])

    def test_columns_of_unequal_length(self):
        with pytest.raises(TraceError, match="at warp 1: 2 lane counts, 1 write flags"):
            WarpColumns([1, 2], [1, 1], [False])
        with pytest.raises(TraceError, match="at warp 2: the lane counts cover 2 lanes"):
            WarpColumns([1, 2, 3], [1, 1], [False, False])
        with pytest.raises(TraceError, match="at warp 1: the lane counts cover 3 lanes"):
            WarpColumns([1, 2], [1, 2], [False, False])
        with pytest.raises(TraceError, match="at warp 0: the lane counts cover 0 lanes"):
            WarpColumns([7], [], [])

    def test_valid_columns_take_their_dtypes(self):
        columns = WarpColumns([3, 1, 3], [2, 1], [True, False])
        assert (columns.lanes.dtype, columns.lengths.dtype, columns.writes.dtype) == (
            np.int64, np.int8, bool,
        )
        assert columns.n_warps == 2
        assert [(w.pages, w.write) for w in columns.warps()] == [((3, 1), True), ((3,), False)]

    def test_empty_columns(self):
        columns = WarpColumns([], [], [])
        assert columns.n_warps == 0
        assert list(columns.warps()) == []
        arrays = materialize_trace(_Warps([]))
        assert (arrays.n_warps, len(arrays.pages)) == (0, 0)

    def test_a_shift_keeps_ids_non_negative(self):
        columns = WarpColumns([0, 5], [2], [False])
        assert columns.shifted(10).lanes.tolist() == [10, 15]
        with pytest.raises(TraceError):
            columns.shifted(-1)


class TestBuilder:
    def test_stream_groups_pages_and_keeps_the_rest(self):
        trace = TraceBuilder()
        trace.stream(range(5), write=True)
        trace.stream(range(9, 6, -1), pages_per_warp=3)
        warps = [(w.pages, w.write) for w in trace.build().warps()]
        assert warps == [((0, 1), True), ((2, 3), True), ((4,), True), ((9, 8, 7), False)]

    def test_append_takes_per_warp_lengths_and_flags(self):
        trace = TraceBuilder()
        trace.append([1, 2, 3, 4, 5], [2, 1, 2], [False, True, False])
        trace.append(np.array([6, 7]), 1, True)
        warps = [(w.pages, w.write) for w in trace.build().warps()]
        assert warps == [
            ((1, 2), False), ((3,), True), ((4, 5), False), ((6,), True), ((7,), True),
        ]

    def test_lanes_must_split_into_warps(self):
        with pytest.raises(TraceError):
            TraceBuilder().append([1, 2, 3], 2)

    def test_empty_segments_add_no_warp(self):
        trace = TraceBuilder()
        trace.stream(range(0))
        trace.append([], 1)
        assert trace.build().n_warps == 0

    def test_build_validates(self):
        trace = TraceBuilder()
        trace.stream([3, -1])
        with pytest.raises(TraceError, match="warp 0: negative page id"):
            trace.build()


class TestJitterOracle:
    """The index shuffle releases warps in exactly the order the object
    shuffle did: the same ``randrange`` calls, the same slot updates."""

    @settings(max_examples=300, deadline=None)
    @given(
        n_warps=st.integers(min_value=0, max_value=300),
        window=st.integers(min_value=1, max_value=40),
        seed=st.integers(),
    )
    @example(n_warps=5, window=8, seed=0)  # fewer warps than the window
    @example(n_warps=8, window=8, seed=1)  # exactly the window
    @example(n_warps=9, window=8, seed=2)  # one past the window
    @example(n_warps=60, window=1, seed=3)  # window 1 keeps program order
    @example(n_warps=1, window=1, seed=4)
    def test_index_shuffle_matches_the_object_shuffle(self, n_warps, window, seed):
        randrange = random.Random((seed << 8) ^ 0x5EED).randrange
        order = jitter_order(n_warps, window, randrange)
        assert list(order) == list(object_shuffle(range(n_warps), window, seed))

    @settings(max_examples=60, deadline=None)
    @given(
        lanes=st.lists(
            st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=32),
            max_size=120,
        ),
        window=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_jittered_columns_match_the_object_shuffle(self, lanes, window, seed):
        warps = [WarpAccess(pages=tuple(p), write=len(p) % 2 == 0) for p in lanes]
        jittered = JitteredWorkload(_Warps(warps), window=window, seed=seed)
        assert list(jittered) == list(object_shuffle(warps, window, seed))


class TestFlattening:
    """``materialize_trace`` (one vectorized coalesce) equals coalescing
    ``iter(workload)`` warp by warp."""

    @staticmethod
    def assert_flattens_like_per_warp(workload):
        arrays = materialize_trace(workload)
        pages, writes, warps = per_warp_flattening(workload)
        assert arrays.pages.tolist() == pages
        assert arrays.writes.tolist() == writes
        assert arrays.warps.tolist() == warps
        assert arrays.n_warps == (warps[-1] if warps else 0)
        assert (arrays.pages.dtype, arrays.writes.dtype, arrays.warps.dtype) == (
            np.int64, bool, np.int64,
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("footprint", [6, 79, 144, 640])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES)
    def test_registry_workloads(self, name, footprint, seed):
        self.assert_flattens_like_per_warp(make_workload(name, footprint, seed=seed))

    def test_zipf_warps_that_repeat_lanes(self):
        workload = ZipfAccessGenerator(40, 500, 1.0, lanes=32, write_fraction=0.3, seed=5)
        columns = workload.columns()
        pages, _first = columns.coalesce()
        assert len(pages) < len(columns.lanes) / 2  # most lanes repeat a page
        self.assert_flattens_like_per_warp(workload)


class TestLocks:
    @pytest.mark.parametrize("params", sorted(ZIPF_LOCK))
    def test_zipf_lanes_are_unchanged(self, params):
        footprint, num_warps, skew, lanes, write_fraction, seed = params
        workload = ZipfAccessGenerator(
            footprint, num_warps, skew, lanes=lanes, write_fraction=write_fraction, seed=seed
        )
        assert lane_fingerprint(workload) == ZIPF_LOCK[params]

    @pytest.mark.parametrize("key", sorted(CAPTURE_LOCK))
    def test_capture_round_trip_is_unchanged(self, key, tmp_path):
        name, footprint, seed = key
        workload = make_workload(name, footprint, seed=seed)
        path = tmp_path / "trace.npz"
        save_trace(workload, path)
        replay = load_trace(path)
        assert (capture_fingerprint(path), lane_fingerprint(replay)) == CAPTURE_LOCK[key]
        assert lane_fingerprint(replay) == lane_fingerprint(workload)

    def test_a_version_1_file_written_by_hand_loads(self, tmp_path):
        # The format a capture has always had: these keys and dtypes.
        path = tmp_path / "v1.npz"
        meta = {"version": 1, "name": "hand", "description": "", "footprint_pages": 9}
        np.savez_compressed(
            path,
            pages=np.array([4, 4, 8, 0], dtype=np.int64),
            lengths=np.array([3, 1], dtype=np.int32),
            writes=np.array([True, False]),
            meta=np.array(json.dumps(meta)),
        )
        replay = load_trace(path)
        assert [(w.pages, w.write) for w in replay] == [((4, 4, 8), True), ((0,), False)]
        assert replay.num_warps == 2


def test_generation_makes_few_calls_per_warp():
    # Python calls per generated warp do not drift with machine load the
    # way wall time does.  Almost all of them are the jitter's one
    # Random.randrange per warp; generation and flattening are vectorized.
    make_workload("keyvalue", 48, seed=1, lookups=100).columns()  # warm imports
    workload = make_workload("keyvalue", 48, seed=0, lookups=20_000)
    profiler = cProfile.Profile()
    arrays = profiler.runcall(materialize_trace, workload)
    calls_per_warp = pstats.Stats(profiler).total_calls / arrays.n_warps
    assert calls_per_warp <= 10, calls_per_warp
