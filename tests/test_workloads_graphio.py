"""Unit tests for edge-list graph I/O and graph injection."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workloads.bfs import BFSWorkload
from repro.workloads.graphio import load_csr, load_edge_list, save_edge_list
from repro.workloads.kron import rmat_edges
from repro.workloads.pagerank import PageRankWorkload


class TestLoadEdgeList:
    def test_basic(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n0 1\n1 2\n2 0\n")
        edges = load_edge_list(path)
        assert edges.tolist() == [[0, 1], [1, 2], [2, 0]]

    def test_comma_and_percent_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("% MatrixMarket-ish\n0,1\n1,0\n")
        edges = load_edge_list(path)
        assert edges.shape == (2, 2)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n0 1\n\n1 0\n\n")
        assert len(load_edge_list(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_edge_list(tmp_path / "none.txt")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\njust-one-token\n")
        with pytest.raises(TraceError):
            load_edge_list(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 x\n")
        with pytest.raises(TraceError):
            load_edge_list(path)

    def test_negative_id(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 -1\n")
        with pytest.raises(TraceError):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# only comments\n")
        with pytest.raises(TraceError):
            load_edge_list(path)


class TestSaveRoundtrip:
    def test_roundtrip(self, tmp_path):
        edges = rmat_edges(scale=6, edge_factor=4, seed=2)
        path = tmp_path / "g.txt"
        save_edge_list(edges, path, header="RMAT scale 6")
        loaded = load_edge_list(path)
        assert np.array_equal(loaded, edges)

    def test_bad_shape(self, tmp_path):
        with pytest.raises(TraceError):
            save_edge_list(np.array([1, 2, 3]), tmp_path / "g.txt")


class TestLoadCsr:
    def test_infers_vertex_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 5\n5 0\n")
        graph = load_csr(path)
        assert graph.num_vertices == 6
        assert graph.num_edges == 2

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        graph = load_csr(path, num_vertices=10)
        assert graph.num_vertices == 10


class TestGraphInjection:
    @pytest.fixture
    def csr(self, tmp_path):
        edges = rmat_edges(scale=8, edge_factor=8, seed=4)
        path = tmp_path / "g.txt"
        save_edge_list(edges, path)
        return load_csr(path, num_vertices=256)

    def test_footprint_follows_graph(self, csr):
        # The graph's pages plus PageRank's one-time cold pages after
        # them, so the footprint bounds every page id the trace emits.
        w = PageRankWorkload(footprint_pages=0, graph=csr)
        assert w.cold_pages > 0
        assert w.footprint_pages == w.page_map.total_pages + w.cold_pages
        assert max(w.coalesced_pages()) == w.footprint_pages - 1
        assert w.graph is csr

    def test_workload_runs_on_injected_graph(self, csr):
        w = BFSWorkload(footprint_pages=0, graph=csr)
        warps = list(w)
        assert warps
        pages = {p for warp in warps for p in warp.pages}
        assert max(pages) < w.footprint_pages

    def test_injected_graph_end_to_end(self, csr):
        from repro.core.config import GMTConfig
        from repro.core.runtime import GMTRuntime

        w = PageRankWorkload(footprint_pages=0, iterations=2, graph=csr)
        cfg = GMTConfig(
            tier1_frames=max(4, w.footprint_pages // 10),
            tier2_frames=max(8, w.footprint_pages // 3),
            sample_target=200,
            sample_batch=50,
        )
        rt = GMTRuntime(cfg)
        result = rt.run(w)
        rt.check_invariants()
        assert result.stats.coalesced_accesses > 0
