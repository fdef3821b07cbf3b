"""Benchmark: regenerate Table 2 (application characteristics)."""

from repro.experiments.runner import run_experiment


def test_table2(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("table2", scale), rounds=1, iterations=1
    )
    save_result(results)
    measured = results[0].extras["measured"]
    # The suite must span the paper's reuse spectrum (1.17% .. 93.5%).
    assert measured["lavamd"]["reuse_percent"] < 5
    assert measured["backprop"]["reuse_percent"] > 85
    assert measured["srad"]["reuse_percent"] > 70
    assert measured["pathfinder"]["reuse_percent"] < 35
