"""Benchmark: regenerate Figure 10 (Tier-2 overhead accounting)."""

from repro.analysis.metrics import arithmetic_mean
from repro.experiments.runner import run_experiment


def test_fig10(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("fig10", scale), rounds=1, iterations=1
    )
    save_result(results)
    fig10a, fig10b = results

    # Figure 10(a): GMT-Reuse has no more wasteful lookups than GMT-Random
    # on average, and TierOrder "does quite bad" on the Tier-3-biased app.
    wasteful = fig10a.extras["wasteful"]
    assert arithmetic_mean(wasteful["reuse"]) <= arithmetic_mean(wasteful["random"]) * 1.1
    by_app = {row[0]: row for row in fig10a.rows}
    assert by_app["Hotspot"][1] > by_app["Hotspot"][3]  # TierOrder >> Reuse

    # Figure 10(b): GMT-Reuse's placements match its fetches more closely
    # than GMT-TierOrder's do (placements that get reused), on average.
    def imbalance(place_col, fetch_col):
        gaps = []
        for row in fig10b.rows:
            place, fetch = row[place_col], row[fetch_col]
            if place:
                gaps.append((place - fetch) / place)
        return arithmetic_mean(gaps)

    assert imbalance(5, 6) < imbalance(1, 2)  # Reuse cols vs TierOrder cols
