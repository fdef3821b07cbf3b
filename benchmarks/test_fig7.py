"""Benchmark: regenerate Figure 7 (RRD distributions / tier bias)."""

from repro.experiments.runner import run_experiment
from repro.reuse.classifier import ReuseClass


def test_fig7(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("fig7", scale), rounds=1, iterations=1
    )
    save_result(results)
    fractions = results[0].extras["access_fractions"]
    # The categories section 3.3 builds its analysis on:
    assert fractions["lavamd"][ReuseClass.SHORT] > 0.5      # Tier-1 bias
    assert fractions["pathfinder"][ReuseClass.SHORT] > 0.6  # Tier-1 bias
    assert fractions["multivectoradd"][ReuseClass.MEDIUM] > 0.5  # Tier-2 bias
    assert fractions["srad"][ReuseClass.MEDIUM] > 0.4       # Tier-2 bias
    assert fractions["hotspot"][ReuseClass.LONG] > 0.8      # Tier-3 bias
