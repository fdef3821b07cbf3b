"""Figure 12: GMT-Reuse speedup over BaM across Tier-2:Tier-1 ratios.

Paper caption: "Ratios = 2 (16GB, 32GB); 4 (16GB, 64GB); and 8 (16GB,
128GB)".  The dataset is held fixed (the ratio-4 geometry's
over-subscription-2 working set) while host memory grows; "speedups will
increase since there is scope for a larger working set to be accommodated
in Tier-2", most for Tier-2-biased applications.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.harness import (
    ExperimentResult,
    app_label,
    default_config,
    replay,
)
from repro.experiments.spec import ExperimentSpec
from repro.workloads.registry import WORKLOAD_NAMES

RATIOS = (2, 4, 8)


def _geometry(scale):
    base = default_config(scale)
    # Dataset fixed at the default geometry's working set.
    footprint = base.working_set_frames()
    configs = {
        ratio: replace(base, tier2_frames=base.tier1_frames * ratio)
        for ratio in RATIOS
    }
    return footprint, configs


def _cells(scale):
    footprint, configs = _geometry(scale)
    return [
        replay(app, kind, configs[ratio], footprint_pages=footprint)
        for app in WORKLOAD_NAMES
        for ratio in RATIOS
        for kind in ("bam", "reuse")
    ]


def _reduce(results, scale):
    footprint, configs = _geometry(scale)
    rows: list[list[object]] = []
    series: dict[int, list[float]] = {r: [] for r in RATIOS}
    for app in WORKLOAD_NAMES:
        row: list[object] = [app_label(app)]
        for ratio in RATIOS:
            cfg = configs[ratio]
            bam = results[replay(app, "bam", cfg, footprint_pages=footprint)]
            reuse = results[replay(app, "reuse", cfg, footprint_pages=footprint)]
            s = reuse.speedup_over(bam)
            series[ratio].append(s)
            row.append(s)
        rows.append(row)

    return [
        ExperimentResult(
            name="fig12",
            title=(
                "Figure 12: GMT-Reuse speedup over BaM, Tier-2:Tier-1 ratio "
                "in {2, 4, 8} (fixed dataset)"
            ),
            headers=["app", "ratio=2", "ratio=4", "ratio=8"],
            rows=rows,
            extras={"series": series},
        )
    ]


SPEC = ExperimentSpec(
    name="fig12",
    title="Tier-2:Tier-1 ratio sensitivity (fixed dataset)",
    cells=_cells,
    reduce=_reduce,
)
