"""Property-based tests for the eviction-policy zoo.

Mirrors ``test_check_properties.py``: the serving layer's quota
enforcement relies on ``select_victim_where`` leaving non-matching pages
completely untouched, and the conformance audit relies on each policy's
``check_integrity`` invariants actually holding under arbitrary
workloads.  Hypothesis drives random op sequences against a naive model
and probes the structural invariants the unit tests assert by example:
the S3-FIFO ghost bound and queue disjointness, and the generational
clock's monotone generation ids.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.policyzoo import (
    EVICTION_POLICY_NAMES,
    ZOO_POLICY_NAMES,
    PartitionedPolicy,
    make_eviction_policy,
)
from repro.policyzoo.mglru import GenClockReplacement
from repro.policyzoo.s3fifo import S3FifoReplacement

CAPACITY = 8

# Op sequences over a small page universe.  insert/touch/remove/evict;
# each op is applied only when legal, so every generated sequence is a
# valid workload for every policy.
ops_st = st.lists(
    st.tuples(
        st.sampled_from(["insert", "touch", "remove", "evict"]),
        st.integers(min_value=0, max_value=20),
    ),
    max_size=60,
)
pages_st = st.lists(
    st.integers(min_value=0, max_value=40), min_size=1, max_size=CAPACITY, unique=True
)
subset_st = st.sets(st.integers(min_value=0, max_value=40))


def apply_ops(policy, ops):
    """Drive the policy with the legal subset of ``ops``; returns the
    model resident set."""
    resident = set()
    for op, page in ops:
        if op == "insert" and page not in resident and len(resident) < CAPACITY:
            policy.insert(page, referenced=bool(page % 2))
            resident.add(page)
        elif op == "touch" and page in resident:
            policy.touch(page)
        elif op == "remove" and page in resident:
            policy.remove(page)
            resident.discard(page)
        elif op == "evict" and resident:
            resident.discard(policy.select_victim())
    return resident


class TestZooContract:
    @settings(max_examples=60)
    @given(ops=ops_st, name=st.sampled_from(ZOO_POLICY_NAMES))
    def test_tracks_the_model_resident_set(self, ops, name):
        policy = make_eviction_policy(name, CAPACITY)
        resident = apply_ops(policy, ops)
        assert sorted(policy.pages()) == sorted(resident)
        assert len(policy) == len(resident)
        policy.check_integrity()

    @settings(max_examples=60)
    @given(
        pages=pages_st, matching=subset_st, name=st.sampled_from(ZOO_POLICY_NAMES)
    )
    def test_filtered_sweep_leaves_non_matching_resident(
        self, pages, matching, name
    ):
        policy = make_eviction_policy(name, CAPACITY)
        for page in pages:
            policy.insert(page, referenced=bool(page % 2))

        victim = policy.select_victim_where(lambda p: p in matching)

        if not (set(pages) & matching):
            assert victim is None
            assert sorted(policy.pages()) == sorted(pages)
        else:
            assert victim in matching
            assert victim not in policy
            assert sorted(policy.pages()) == sorted(set(pages) - {victim})
        policy.check_integrity()

    @settings(max_examples=40)
    @given(ops=ops_st, matching=subset_st, name=st.sampled_from(ZOO_POLICY_NAMES))
    def test_sweeps_compose_with_arbitrary_histories(self, ops, matching, name):
        policy = make_eviction_policy(name, CAPACITY)
        resident = apply_ops(policy, ops)
        victim = policy.select_victim_where(lambda p: p in matching)
        if victim is not None:
            resident.discard(victim)
        assert sorted(policy.pages()) == sorted(resident)
        policy.check_integrity()


def two_tenant_partition(name):
    """Even pages belong to tenant 0, odd pages to tenant 1."""
    return PartitionedPolicy(
        [make_eviction_policy(name, CAPACITY) for _ in range(2)],
        lambda page: page % 2,
    )


class TestPartitionedSize:
    """The runtime's fullness test reads ``len()`` on every fill, so a
    partition keeps a running size instead of summing its partitions."""

    @settings(max_examples=60)
    @given(
        ops=ops_st,
        matching=subset_st,
        name=st.sampled_from(EVICTION_POLICY_NAMES),
    )
    def test_len_is_the_partitions_sum(self, ops, matching, name):
        policy = two_tenant_partition(name)
        resident = apply_ops(policy, ops)
        victim = policy.select_victim_where(lambda p: p in matching)
        if victim is not None:
            resident.discard(victim)
        assert len(policy) == sum(len(p) for p in policy.policies)
        assert len(policy) == len(resident)
        policy.check_integrity()

    def test_drifted_size_fails_integrity(self):
        policy = two_tenant_partition("clock")
        policy.insert(4)
        policy._size += 1
        with pytest.raises(SimulationError, match="partition size"):
            policy.check_integrity()


class TestS3FifoInvariants:
    @settings(max_examples=60)
    @given(ops=ops_st)
    def test_small_and_main_are_disjoint(self, ops):
        policy = S3FifoReplacement(CAPACITY)
        apply_ops(policy, ops)
        assert not set(policy._small) & set(policy._main)

    @settings(max_examples=60)
    @given(ops=ops_st)
    def test_ghost_is_bounded_and_non_resident(self, ops):
        policy = S3FifoReplacement(CAPACITY)
        resident = apply_ops(policy, ops)
        ghosts = set(policy.ghost_pages())
        assert len(ghosts) <= policy.ghost_bound
        assert not ghosts & resident


class TestGenClockInvariants:
    @settings(max_examples=60)
    @given(ops=ops_st)
    def test_generations_are_monotone_and_bounded_by_youngest(self, ops):
        policy = GenClockReplacement(CAPACITY, max_gens=4)
        youngest_seen = 0
        resident = set()
        for op, page in ops:
            if op == "insert" and page not in resident and len(resident) < CAPACITY:
                policy.insert(page)
                resident.add(page)
            elif op == "touch" and page in resident:
                policy.touch(page)
            elif op == "remove" and page in resident:
                policy.remove(page)
                resident.discard(page)
            elif op == "evict" and resident:
                resident.discard(policy.select_victim())
            assert policy.youngest_generation >= youngest_seen
            youngest_seen = policy.youngest_generation
            for p in resident:
                assert policy.generation_of(p) <= youngest_seen

    @settings(max_examples=60)
    @given(pages=pages_st, matching=subset_st)
    def test_filtered_sweep_preserves_non_matching_generations(
        self, pages, matching
    ):
        policy = GenClockReplacement(CAPACITY, max_gens=4)
        for page in pages:
            policy.insert(page)
        before = {p: policy.generation_of(p) for p in pages}

        victim = policy.select_victim_where(lambda p: p in matching)

        for page in pages:
            if page == victim:
                continue
            assert policy.generation_of(page) == before[page]
