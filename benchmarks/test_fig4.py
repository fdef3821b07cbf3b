"""Benchmark: regenerate Figure 4 (VTD/RD correlation, per-page RRD patterns)."""

from repro.experiments.runner import run_experiment


def test_fig4(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("fig4", scale), rounds=1, iterations=1
    )
    save_result(results)
    fig4a, fig4bc = results
    # Figure 4(a): near-linear VTD <-> RD relation for both apps.
    for r in fig4a.extras["correlations"].values():
        assert r > 0.9
    # Figure 4(b): MultiVectorAdd per-page RRDs mostly constant;
    # Figure 4(c): PageRank per-page RRDs mostly alternating.
    fr = fig4bc.extras["series_fractions"]
    assert fr["multivectoradd"]["constant"] > fr["multivectoradd"]["alternating"]
    assert fr["pagerank"]["alternating"] > fr["pagerank"]["constant"]
