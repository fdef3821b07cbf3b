"""Benchmark: regenerate Figure 12 (Tier-2:Tier-1 capacity ratio sweep)."""

from repro.analysis.metrics import arithmetic_mean
from repro.experiments.runner import run_experiment


def test_fig12(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("fig12", scale), rounds=1, iterations=1
    )
    save_result(results)
    series = results[0].extras["series"]

    # "Speedups will increase since there is scope for a larger working
    # set to be accommodated in Tier-2" — monotone in the ratio on average.
    means = [arithmetic_mean(series[r]) for r in (2, 4, 8)]
    assert means[0] < means[1] < means[2]

    # And per app, ratio 8 should never lose to ratio 2.
    for row in results[0].rows:
        assert row[3] >= row[1] * 0.95, row[0]
