"""Benchmark: regenerate Figure 6 (transfer-scheme comparison)."""

from repro.experiments.runner import run_experiment


def test_fig6(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("fig6", scale), rounds=1, iterations=1
    )
    save_result(results)
    fig6a, fig6b = results
    # Figure 6(a): DMA/zero-copy crossover near 8 non-contiguous pages.
    assert 6 <= fig6a.extras["crossover"] <= 10
    # Figure 6(b): Hybrid-32T at (or close to) the best across all skews.
    series = fig6b.extras["series"]
    points = len(next(iter(series.values())))
    for i in range(points):
        best = max(series[name][i] for name in series)
        assert series["Hybrid-32T"][i] >= 0.55 * best
    # Zero-copy wins at low skew (many transfers)...
    assert series["zero-copy"][0] > series["cudaMemcpyAsync"][0]
    # ...and loses its edge at skew 1 (few transfers, pinning dominates).
    assert series["zero-copy"][-1] < series["zero-copy"][0] * 0.7
