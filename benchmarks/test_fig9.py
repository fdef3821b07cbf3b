"""Benchmark: regenerate Figure 9 (GMT-Reuse prediction accuracy)."""

from repro.experiments.runner import run_experiment


def test_fig9(benchmark, scale, save_result):
    results = benchmark.pedantic(
        lambda: run_experiment("fig9", scale), rounds=1, iterations=1
    )
    save_result(results)
    accs = results[0].extras["accuracies"]

    # High-reuse iterative apps build usable history (paper: high bars).
    for app in ("srad", "backprop", "hotspot", "multivectoradd"):
        assert accs[app] > 0.5, app

    # LavaMD's single pass builds "hardly any history" (section 3.3).
    assert accs["lavamd"] < 0.3
