"""Benchmark: regenerate Figure 14 (HMM vs BaM vs GMT-Reuse, section 3.6)."""

from repro.experiments.runner import run_experiment


def test_fig14(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("fig14", scale), rounds=1, iterations=1
    )
    save_result(results)
    means = results[0].extras["means"]

    # BaM outperforms HMM despite HMM's Tier-2 — GPU orchestration wins.
    assert means["hmm_over_bam"] < 1.0
    # GMT-Reuse beats BaM and beats HMM by a large factor (paper: 4.57x).
    assert means["reuse_over_bam"] > 1.2
    assert means["reuse_over_hmm"] > 2.0
    # Even granting HMM GMT-Reuse's hit rates, orchestration keeps
    # GMT-Reuse ahead (paper: +90%).
    assert means["reuse_over_optimistic_hmm"] > 1.5
