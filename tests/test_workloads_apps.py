"""Tests over the nine Table 2 application workloads.

Each application is checked for the properties the paper's evaluation
depends on: footprint, reuse percentage band, and RRD class bias.
"""

import pytest

from repro.analysis.characterize import characterize_workload, collect_access_rds
from repro.errors import ConfigError
from repro.reuse.classifier import ReuseClass
from repro.workloads.registry import (
    EXTRA_WORKLOAD_NAMES,
    GRAPH_WORKLOADS,
    WORKLOAD_NAMES,
    make_workload,
    normalize_name,
    workload_class,
    workload_table,
)

# Small geometry for fast tests: Tier-1=128, Tier-2=512, footprint=1280.
T1, T2, FOOTPRINT = 128, 512, 1280


@pytest.fixture(scope="module")
def suite():
    """One characterisation pass per app (module-scoped: it is not cheap)."""
    results = {}
    for name in WORKLOAD_NAMES:
        w = make_workload(name, FOOTPRINT, jitter_warps=0)
        results[name] = {
            "workload": w,
            "chars": characterize_workload(w),
            "rds": collect_access_rds(w, T1, T2),
        }
    return results


class TestRegistry:
    def test_all_nine_present(self):
        assert len(WORKLOAD_NAMES) == 9

    def test_normalize_name(self):
        assert normalize_name("LavaMD") == "lavamd"
        assert normalize_name("Multi-Vector_Add") == "multivectoradd"

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            normalize_name("doom")

    def test_workload_table_rows(self):
        rows = workload_table()
        assert len(rows) == 9
        assert all(r["name"] and r["description"] for r in rows)

    def test_graph_workloads_subset(self):
        assert GRAPH_WORKLOADS <= set(WORKLOAD_NAMES)

    def test_make_workload_from_config(self):
        from repro.core.config import GMTConfig

        cfg = GMTConfig(tier1_frames=T1, tier2_frames=T2)
        w = make_workload("hotspot", cfg)
        assert w.footprint_pages == cfg.working_set_frames()


class TestTraceValidity:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_nonempty_and_reiterable(self, suite, name):
        w = suite[name]["workload"]
        first = sum(1 for _ in w)
        second = sum(1 for _ in w)
        assert first > 0
        assert first == second

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_footprint_roughly_requested(self, suite, name):
        chars = suite[name]["chars"]
        # Graph workloads round to power-of-two vertex counts.
        tolerance = 0.45 if name in GRAPH_WORKLOADS else 0.15
        assert chars.distinct_pages == pytest.approx(FOOTPRINT, rel=tolerance)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_has_writes(self, suite, name):
        assert suite[name]["chars"].write_accesses > 0

    @pytest.mark.parametrize("scale", [8192, 4096])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES)
    def test_page_ids_below_footprint(self, name, scale):
        # footprint_pages bounds every page id the trace emits: the
        # prefetcher stops there and the footprint-bound audit checks it.
        from repro.experiments.harness import default_config

        w = make_workload(name, default_config(scale))
        assert max(w.coalesced_pages()) < w.footprint_pages

    def test_page_ids_below_footprint_at_every_size(self):
        # Small sizes where a layout outgrows the request (a minimum box,
        # row pair or vector), and sizes whose graphs have an edge count
        # that is a multiple of the edges per page (BFS reads the page
        # after the last edge page for an empty list at the array's end).
        violations = []
        for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
            for footprint in (4, 6, 16, 79, 144, 284, 571):
                for seed in (0, 1, 2):
                    w = make_workload(name, footprint, seed=seed)
                    top = max(w.coalesced_pages())
                    if top >= w.footprint_pages:
                        violations.append((name, footprint, seed, top, w.footprint_pages))
        assert violations == []

    def test_injected_graph_page_ids_below_footprint(self):
        from repro.workloads.kron import rmat_csr

        graph = rmat_csr(8, 16, seed=1)
        for name in sorted(GRAPH_WORKLOADS):
            w = workload_class(name)(footprint_pages=0, graph=graph)
            assert max(w.coalesced_pages()) < w.footprint_pages, name


class TestTable2Shapes:
    """Reuse % within a band around Table 2's published value."""

    BANDS = {
        "lavamd": (0.5, 5),
        "pathfinder": (10, 30),
        "bfs": (20, 50),
        "multivectoradd": (15, 50),
        "srad": (70, 95),
        "backprop": (85, 99),
        "pagerank": (80, 98),
        "sssp": (60, 95),
        "hotspot": (70, 95),
    }

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_reuse_percent_band(self, suite, name):
        lo, hi = self.BANDS[name]
        assert lo <= suite[name]["chars"].reuse_percent <= hi


class TestFigure7Bias:
    """Dominant Eq. 1 class of each app's reuses (Figure 7's tier bias)."""

    def _fractions(self, suite, name):
        return suite[name]["rds"].class_fractions()

    def test_lavamd_tier1_biased(self, suite):
        assert self._fractions(suite, "lavamd")[ReuseClass.SHORT] > 0.5

    def test_pathfinder_tier1_biased(self, suite):
        fr = self._fractions(suite, "pathfinder")
        assert fr[ReuseClass.SHORT] > 0.6

    def test_multivectoradd_tier2_biased(self, suite):
        assert self._fractions(suite, "multivectoradd")[ReuseClass.MEDIUM] > 0.5

    def test_srad_tier2_biased(self, suite):
        fr = self._fractions(suite, "srad")
        assert fr[ReuseClass.MEDIUM] > fr[ReuseClass.SHORT]

    def test_hotspot_tier3_biased(self, suite):
        assert self._fractions(suite, "hotspot")[ReuseClass.LONG] > 0.8

    def test_pagerank_not_tier1_dominated(self, suite):
        fr = self._fractions(suite, "pagerank")
        assert fr[ReuseClass.MEDIUM] + fr[ReuseClass.LONG] > 0.4

    def test_sssp_long_heavy(self, suite):
        fr = self._fractions(suite, "sssp")
        assert fr[ReuseClass.MEDIUM] + fr[ReuseClass.LONG] > 0.6


class TestGraphWorkloads:
    def test_bfs_visits_most_of_graph(self, suite):
        w = suite["bfs"]["workload"]
        chars = suite["bfs"]["chars"]
        assert chars.distinct_pages > 0.7 * w.footprint_pages

    def test_graph_cached_between_iterations(self):
        w = make_workload("pagerank", FOOTPRINT, jitter_warps=0)
        g1 = w.graph
        list(w)
        assert w.graph is g1

    def test_explicit_scale_override(self):
        cls = workload_class("bfs")
        w = cls(footprint_pages=FOOTPRINT, scale=8)
        assert w.graph.num_vertices == 256


class TestWorkloadParameters:
    def test_hotspot_iterations(self):
        w = make_workload("hotspot", FOOTPRINT, jitter_warps=0, iterations=2)
        w2 = make_workload("hotspot", FOOTPRINT, jitter_warps=0, iterations=4)
        assert sum(1 for _ in w2) > sum(1 for _ in w)

    def test_invalid_parameters_rejected(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            make_workload("hotspot", FOOTPRINT, iterations=0)
        with pytest.raises(TraceError):
            make_workload("backprop", FOOTPRINT, epochs=0)
        with pytest.raises(TraceError):
            make_workload("srad", FOOTPRINT, chunk_fraction=0.0)
        with pytest.raises(TraceError):
            make_workload("multivectoradd", FOOTPRINT, num_inputs=0)

    def test_seeded_determinism(self):
        a = make_workload("sssp", FOOTPRINT, seed=3)
        b = make_workload("sssp", FOOTPRINT, seed=3)
        assert [w.pages for w in a][:200] == [w.pages for w in b][:200]
