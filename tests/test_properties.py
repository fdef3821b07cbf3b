"""Property-based tests (hypothesis) on the core data structures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.mem.clock_replacement import ClockReplacement
from repro.mem.tier2_order import Tier2Fifo
from repro.reuse.classifier import ReuseClass, RRDClassifier
from repro.reuse.distance import ReuseDistanceTracker
from repro.reuse.markov import MarkovTierPredictor
from repro.reuse.regression import IncrementalOLS, fit_ols
from repro.sim.gpu import WarpAccess

pages_strategy = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300)


class TestReuseDistanceProperties:
    @given(pages_strategy)
    def test_matches_naive(self, pages):
        from tests.test_reuse_distance import naive_reuse_distances
        from repro.reuse.distance import reuse_distances

        assert reuse_distances(pages) == naive_reuse_distances(pages)

    @given(pages_strategy)
    def test_rd_bounded_by_distinct_pages(self, pages):
        tracker = ReuseDistanceTracker()
        for page in pages:
            rd = tracker.record(page)
            if rd is not None:
                assert 0 <= rd < tracker.distinct_pages

    @given(pages_strategy)
    def test_first_access_none_exactly_once_per_page(self, pages):
        tracker = ReuseDistanceTracker()
        nones = sum(1 for p in pages if tracker.record(p) is None)
        assert nones == len(set(pages))


class TestClockProperties:
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=8))
    def test_never_exceeds_capacity_and_victims_valid(self, accesses, capacity):
        clock = ClockReplacement(capacity)
        resident = set()
        for page in accesses:
            if page in clock:
                clock.touch(page)
                continue
            if clock.full:
                victim = clock.select_victim()
                assert victim in resident
                resident.remove(victim)
            clock.insert(page)
            resident.add(page)
            assert len(clock) <= capacity
        assert set(clock.pages()) == resident

    @given(st.integers(min_value=2, max_value=10))
    def test_eviction_order_without_touches_is_fifo(self, capacity):
        clock = ClockReplacement(capacity)
        for p in range(capacity):
            clock.insert(p, referenced=False)
        assert [clock.select_victim() for _ in range(capacity)] == list(range(capacity))


class TestFifoProperties:
    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=100))
    def test_matches_reference_model(self, ops):
        fifo = Tier2Fifo()
        model: list[int] = []
        for op in ops:
            if op in model:
                fifo.remove(op)
                model.remove(op)
            else:
                fifo.insert(op)
                model.append(op)
        assert fifo.pages() == model
        while model:
            assert fifo.select_victim() == model.pop(0)


class TestOlsProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6).map(lambda v: round(v, 3)),
                st.floats(min_value=0, max_value=1e6).map(lambda v: round(v, 3)),
            ),
            min_size=2,
            max_size=100,
        )
    )
    def test_incremental_equals_batch(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        inc = IncrementalOLS()
        for x, y in points:
            inc.add(x, y)
        if not inc.ready:
            return
        split = len(points) // 2
        inc2 = IncrementalOLS()
        inc2.update(xs[:split], ys[:split])
        inc2.update(xs[split:], ys[split:])
        a, b = inc.model(), inc2.model()
        assert abs(a.m - b.m) < 1e-6 * max(1.0, abs(a.m))
        assert abs(a.b - b.b) < 1e-6 * max(1.0, abs(a.b))

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-1000, max_value=1000),
    )
    def test_recovers_exact_line(self, m, b):
        xs = [1.0, 2.0, 5.0, 9.0]
        ys = [m * x + b for x in xs]
        model = fit_ols(xs, ys)
        assert abs(model.m - m) < 1e-6 + 1e-6 * abs(m)
        assert abs(model.b - b) < 1e-4 + 1e-6 * abs(b)


class TestClassifierProperties:
    @given(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=4000),
        st.floats(min_value=0, max_value=1e7),
    )
    def test_classification_is_monotone_partition(self, t1, t2, rrd):
        clf = RRDClassifier(t1, t2)
        cls = clf.classify(rrd)
        if rrd < t1:
            assert cls is ReuseClass.SHORT
        elif rrd < t1 + t2:
            assert cls is ReuseClass.MEDIUM
        else:
            assert cls is ReuseClass.LONG


class TestMarkovProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(ReuseClass)), st.sampled_from(list(ReuseClass))
            ),
            max_size=100,
        )
    )
    def test_prediction_maximizes_row_weight(self, transitions):
        predictor = MarkovTierPredictor()
        for src, dst in transitions:
            predictor.record_transition(src, dst)
        for state in ReuseClass:
            predicted = predictor.predict(state)
            row_max = max(predictor.weight(state, d) for d in ReuseClass)
            if predicted is None:
                assert row_max == 0
            else:
                assert predictor.weight(state, predicted) == row_max > 0


class TestQueueingProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.booleans()),  # (t2_hit, writeback)
            min_size=1,
            max_size=80,
        ),
        st.integers(min_value=1, max_value=16),
    )
    def test_makespan_monotone_and_floored(self, misses, concurrency):
        from repro.sim.latency import PlatformModel
        from repro.sim.queueing import QueueingModel
        from repro.units import PAGE_SIZE

        platform = PlatformModel()
        qm = QueueingModel(
            platform=platform, page_size=PAGE_SIZE, fault_concurrency=concurrency
        )
        prev = 0.0
        for t2_hit, writeback in misses:
            done = qm.on_miss(
                tier2_lookup=True, tier2_hit=t2_hit, writeback=writeback
            )
            assert done >= 0.0
            assert qm.makespan_ns >= prev  # never goes backwards
            prev = qm.makespan_ns
        # Fault-latency floor: one miss can never finish before its own
        # unqueued service time.
        min_service = platform.tier2_lookup_ns
        assert qm.makespan_ns >= min_service

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=8))
    def test_more_concurrency_never_slower(self, n_misses, concurrency):
        from repro.sim.latency import PlatformModel
        from repro.sim.queueing import QueueingModel
        from repro.units import PAGE_SIZE

        def makespan(slots):
            qm = QueueingModel(
                platform=PlatformModel(), page_size=PAGE_SIZE, fault_concurrency=slots
            )
            for _ in range(n_misses):
                qm.on_miss(tier2_lookup=False, tier2_hit=False)
            return qm.makespan_ns

        assert makespan(concurrency * 2) <= makespan(concurrency) + 1e-6


class TestJitterProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_jitter_preserves_multiset(self, n_warps, window, seed):
        from repro.sim.gpu import warp_of
        from repro.workloads.trace import JitteredWorkload, WarpColumns, Workload

        class _List(Workload):
            name = "list"

            def __init__(self):
                super().__init__(max(n_warps, 1), seed)

            def columns(self):
                return WarpColumns.from_warps([warp_of([p]) for p in range(n_warps)])

        out = list(JitteredWorkload(_List(), window=window))
        assert sorted(w.pages[0] for w in out) == list(range(n_warps))


class TestRuntimeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(["tier-order", "random", "reuse"]),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=24),
    )
    def test_invariants_hold_on_random_traces(self, seed, policy, t1, t2):
        rng = random.Random(seed)
        cfg = GMTConfig(
            tier1_frames=t1,
            tier2_frames=t2,
            policy=policy,
            sample_target=50,
            sample_batch=10,
            tier3_bias_window=8,
            seed=seed & 0xFFFF,
        )
        rt = GMTRuntime(cfg)
        footprint = (t1 + t2 + 1) * 3
        for _ in range(300):
            lanes = tuple(rng.randrange(footprint) for _ in range(rng.randint(1, 3)))
            rt.access_warp(WarpAccess(pages=lanes, write=rng.random() < 0.4))
        rt.check_invariants()
        s = rt.stats
        # Conservation: every miss is served by Tier-2 or the SSD.
        assert s.t1_misses == s.t2_hits + s.ssd_page_reads
        # Lookups split into hits and wasteful ones.
        assert s.t2_lookups == s.t2_hits + s.t2_wasteful_lookups
        assert s.t2_fetches == s.t2_hits
        # Fig 10(b) accounting: fetches can never exceed placements.
        assert s.t2_fetches <= s.t2_placements
        # PCIe byte accounting matches the counters.
        page = cfg.page_size
        assert rt.pcie.h2d_bytes == s.t2_fetches * page
        assert rt.pcie.d2h_bytes == s.t2_placements * page
        assert rt.ssd.reads == s.ssd_page_reads
        assert rt.ssd.writes == s.ssd_page_writes

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_deterministic_given_seed(self, seed):
        def run():
            rng = random.Random(seed)
            cfg = GMTConfig(
                tier1_frames=4,
                tier2_frames=16,
                policy="reuse",
                sample_target=50,
                sample_batch=10,
                seed=7,
            )
            rt = GMTRuntime(cfg)
            for _ in range(200):
                rt.access(rng.randrange(60), write=rng.random() < 0.3)
            return rt.result()

        a, b = run(), run()
        assert a.elapsed_ns == b.elapsed_ns
        assert a.stats.as_dict() == b.stats.as_dict()
