"""Benchmark: regenerate Figure 13 (Tier-1 = "32 GB", non-graph apps)."""

from repro.experiments.runner import run_experiment


def test_fig13(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("fig13", scale), rounds=1, iterations=1
    )
    save_result(results)
    means = results[0].extras["means"]

    # Paper: GMT-Reuse delivers ~45% over BaM at the larger Tier-1 and
    # stays the best policy.
    assert means["reuse"] > 1.2
    assert means["reuse"] >= means["tier-order"]
    assert means["reuse"] >= means["random"]
