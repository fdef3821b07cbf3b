"""Benchmark: regenerate Figure 8 — the headline result.

Paper shape: all three GMT policies speed up over BaM on average, with
GMT-Reuse clearly ahead (paper: 1.50 vs 1.24/1.07) via SSD I/O reductions.
"""

from repro.analysis.metrics import arithmetic_mean
from repro.experiments.runner import run_experiment


def test_fig8(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("fig8", scale), rounds=1, iterations=1
    )
    save_result(results)
    fig8a, fig8b = results
    means = fig8a.extras["means"]

    # Every policy beats BaM on average (Tier-2 matters, contribution #6).
    for policy in ("tier-order", "random", "reuse"):
        assert means[policy] > 1.0, policy

    # GMT-Reuse is the best policy and lands near the paper's 1.5x.
    assert means["reuse"] >= means["tier-order"]
    assert means["reuse"] >= means["random"]
    assert 1.2 <= means["reuse"] <= 2.2

    # The speedups come from SSD I/O reductions (Figure 8(b)).
    io = fig8b.extras["io_ratios"]
    assert arithmetic_mean(io["reuse"]) < 0.9

    # Per-app stories from section 3.3: Srad/Backprop/Hotspot are the big
    # GMT-Reuse winners; LavaMD is roughly flat.
    speedups = dict(zip([r[0] for r in fig8a.rows], [r[3] for r in fig8a.rows]))
    assert speedups["Srad"] > 1.3
    assert speedups["Backprop"] > 1.2
    assert speedups["Hotspot"] > 1.3
    assert 0.7 < speedups["LavaMD"] < 1.6
