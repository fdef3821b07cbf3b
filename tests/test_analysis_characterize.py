"""Unit tests for the instrumented-run characterisation machinery."""

import pytest

from repro.analysis.characterize import (
    characterize_workload,
    collect_access_rds,
    collect_eviction_rrds,
    vtd_rd_correlation,
)
from repro.errors import TraceError
from repro.reuse.classifier import ReuseClass
from repro.workloads.trace import WarpColumns, Workload


class _PagesWorkload(Workload):
    """Workload wrapping a plain page-id list (one page per warp)."""

    name = "pages"

    def __init__(self, pages, write_pages=(), footprint_pages=None):
        super().__init__(footprint_pages or (max(pages) + 1), 0)
        self._pages = pages
        self._writes = set(write_pages)

    def columns(self):
        writes = [p in self._writes for p in self._pages]
        return WarpColumns(self._pages, [1] * len(self._pages), writes)


class TestCharacterizeWorkload:
    def test_counts(self):
        w = _PagesWorkload([1, 2, 3, 1, 2, 4], write_pages={2})
        ch = characterize_workload(w)
        assert ch.coalesced_accesses == 6
        assert ch.distinct_pages == 4
        assert ch.reused_pages == 2
        assert ch.write_accesses == 2

    def test_reuse_percent(self):
        w = _PagesWorkload([1, 2, 3, 4, 1])
        assert characterize_workload(w).reuse_percent == pytest.approx(25.0)

    def test_total_io(self):
        w = _PagesWorkload([1, 2, 3])
        ch = characterize_workload(w)
        assert ch.total_io_bytes(page_size=1000) == 3000

    def test_intra_warp_duplicates_coalesce(self):
        class W(Workload):
            name = "dups"

            def columns(self):
                return WarpColumns([1, 1, 1], [3], [False])

        ch = characterize_workload(W(footprint_pages=2))
        assert ch.coalesced_accesses == 1
        assert ch.reused_pages == 0


class TestCollectAccessRds:
    def test_classes(self):
        # Footprint 10, tier1=2, tier2=3 -> bounds 2 and 5.
        pages = [0, 1, 0, 2, 3, 1, 4, 5, 6, 7, 2]
        w = _PagesWorkload(pages)
        an = collect_access_rds(w, tier1_frames=2, tier2_frames=3)
        # Reuses: 0 (rd 1, SHORT), 1 (rd 3, MEDIUM), 2 (rd 6, LONG).
        assert an.finite_reuses == 3
        assert an.class_counts[ReuseClass.SHORT] == 1
        assert an.class_counts[ReuseClass.MEDIUM] == 1
        assert an.class_counts[ReuseClass.LONG] == 1
        assert an.cold_accesses == 8

    def test_fractions_sum_to_one(self):
        w = _PagesWorkload([0, 1, 2, 0, 1, 2, 0])
        an = collect_access_rds(w, 2, 2)
        assert sum(an.class_fractions().values()) == pytest.approx(1.0)

    def test_percentile(self):
        w = _PagesWorkload([0, 1, 0, 1, 0, 1])
        an = collect_access_rds(w, 4, 4)
        assert an.percentile(0.5) == 1

    def test_percentile_validation(self):
        w = _PagesWorkload([0, 1, 0])
        an = collect_access_rds(w, 4, 4)
        with pytest.raises(ValueError):
            an.percentile(1.5)

    def test_sample_stride(self):
        w = _PagesWorkload([0, 1] * 50)
        an = collect_access_rds(w, 4, 4, sample_stride=10)
        assert 0 < len(an.rd_sample) < an.finite_reuses

    def test_invalid_stride(self):
        with pytest.raises(TraceError):
            collect_access_rds(_PagesWorkload([0]), 4, 4, sample_stride=0)


class TestCollectEvictionRrds:
    def test_sweep_evictions_have_constant_rrd(self):
        # Two sweeps over 6 pages with tier1=2: a page is evicted 2
        # accesses after its own (Tier-1 residency), so the remaining
        # distance to its next access is 6 - 2 - 1 = 3 distinct pages.
        pages = list(range(6)) * 2
        an = collect_eviction_rrds(_PagesWorkload(pages), tier1_frames=2)
        assert an.rrds, "expected resolved evictions"
        assert all(rrd == 3 for _, rrd in an.rrds)

    def test_never_reused_counted_long(self):
        pages = list(range(10))  # single sweep: evicted pages never return
        an = collect_eviction_rrds(_PagesWorkload(pages), tier1_frames=2)
        assert an.never_reused_evictions == an.total_evictions > 0
        assert an.class_counts[ReuseClass.LONG] == an.total_evictions

    def test_class_fractions_empty(self):
        an = collect_eviction_rrds(_PagesWorkload([0, 1]), tier1_frames=4)
        assert an.total_evictions == 0
        assert sum(an.class_fractions().values()) == 0.0

    def test_per_page_series_order(self):
        pages = list(range(4)) * 5
        an = collect_eviction_rrds(_PagesWorkload(pages), tier1_frames=2)
        series = an.per_page_series(0)
        assert len(series) >= 2
        assert all(s == series[0] for s in series)  # constant pattern

    def test_validation(self):
        with pytest.raises(TraceError):
            collect_eviction_rrds(_PagesWorkload([0]), tier1_frames=0)


class TestVtdRdCorrelation:
    def test_sweep_is_perfectly_linear(self):
        pages = list(range(20)) * 4
        corr = vtd_rd_correlation(_PagesWorkload(pages))
        assert abs(corr.pearson_r) > 0.99 or corr.samples > 0

    def test_requires_reuse(self):
        with pytest.raises(TraceError):
            vtd_rd_correlation(_PagesWorkload(list(range(10))))

    def test_max_samples(self):
        pages = list(range(10)) * 10
        corr = vtd_rd_correlation(_PagesWorkload(pages), max_samples=15)
        assert corr.samples == 15

    def test_model_maps_vtd_to_rd(self):
        # On a sweep, VTD = footprint and RD = footprint - 1.
        pages = list(range(30)) * 3
        corr = vtd_rd_correlation(_PagesWorkload(pages))
        assert corr.model.predict(30) == pytest.approx(29, abs=1.0)
