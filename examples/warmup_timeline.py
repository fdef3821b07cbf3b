#!/usr/bin/env python3
"""Watch GMT-Reuse learn: the warm-up timeline.

GMT-Reuse starts ignorant: the first evictions use a default strategy
while the sampler fits the VTD->RD line and the Markov chain accumulates
resolved history (paper section 2.1.3).  End-of-run averages hide this;
telemetry's delta windows (``telemetry.windows()``) make it visible
window by window.  This example trains Backprop and prints, per window of
accesses: prediction coverage (history-driven decisions), Tier-2 hit
rate, and SSD reads — the learning curve of the policy.

Run:  python examples/warmup_timeline.py
"""

from repro import GMTConfig, GMTRuntime
from repro.analysis.report import render_histogram, render_table
from repro.obs import Telemetry
from repro.workloads import make_workload


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main() -> None:
    config = GMTConfig.paper_default(scale=512)
    workload = make_workload("backprop", config, epochs=10)

    runtime = GMTRuntime(config.with_policy("reuse"))
    telemetry = runtime.attach_telemetry(Telemetry(window=20_000))
    runtime.run(workload)
    windows = telemetry.windows()

    rows = []
    t2_hit_rates = []
    for w in windows:
        predictions = w["gmt_predictions_made"]
        coverage = ratio(predictions, predictions + w["gmt_fallback_placements"])
        t2_hit_rate = ratio(w["gmt_t2_hits"], w["gmt_t2_lookups"])
        t2_hit_rates.append(t2_hit_rate)
        rows.append(
            [
                w["window"],
                w["span"],
                f"{coverage:.0%}",
                f"{t2_hit_rate:.0%}",
                w["gmt_ssd_page_reads"],
            ]
        )
    print(
        render_table(
            ["window", "accesses", "history-driven", "T2 hit rate", "SSD reads"],
            rows,
            title="Backprop through GMT-Reuse, 20k-access windows",
        )
    )

    print()
    print(
        render_histogram(
            [f"w{w['window']}" for w in windows],
            t2_hit_rates,
            title="Tier-2 hit rate per window (the learning curve)",
            width=30,
        )
    )
    stats = runtime.stats
    print(
        f"\nEnd of run: prediction accuracy {stats.prediction_accuracy:.0%} "
        f"over {stats.resolved_predictions} resolved predictions; "
        f"{stats.fallback_placements} cold-phase fallbacks."
    )


if __name__ == "__main__":
    main()
