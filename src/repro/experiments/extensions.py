"""Extension studies beyond the paper's figures.

Three questions the paper raises but does not quantify, answered with the
same harness:

- **Oracle gap** — how far is GMT-Reuse from its own upper bound (perfect
  RVTD knowledge + converged regression, see :mod:`repro.core.oracle`)?
  Section 2.1.3 positions GMT-Reuse as an approximation of Belady's OPT;
  this measures the remaining approximation error.
- **SSD scaling** — BaM scales across SSD arrays; how many drives until
  the SSD stops being the bottleneck and Tier-2 stops mattering?  (The
  paper's platform has a single Gen3 x4 drive.)
- **Prefetching** — section 2 keeps movement demand-based "as in BaM";
  what happens if a UVM-style sequential prefetcher is added?  (Answer:
  in the bandwidth-bound regime it only inflates SSD traffic.)

Run with ``python -m repro.experiments extensions``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.metrics import arithmetic_mean
from repro.core.config import DEFAULT_SCALE
from repro.experiments.harness import (
    ExperimentResult,
    app_label,
    default_config,
    oracle_replay,
    replay,
)
from repro.experiments.spec import ExperimentSpec, run_spec

#: Apps with enough reuse for the oracle comparison to be interesting.
ORACLE_APPS = ("multivectoradd", "srad", "backprop", "pagerank", "hotspot")
SSD_COUNTS = (1, 2, 4, 8)
PREFETCH_APPS = ("pathfinder", "hotspot", "bfs")
SSD_SCALING_APPS = ("srad", "backprop", "hotspot", "pagerank")
MODEL_VALIDATION_APPS = ("lavamd", "multivectoradd", "srad", "pagerank", "hotspot")


# ----------------------------------------------------------------------
# Oracle gap
# ----------------------------------------------------------------------
def _oracle_cells(scale):
    config = default_config(scale)
    cells = []
    for app in ORACLE_APPS:
        cells.append(replay(app, "bam", config))
        cells.append(replay(app, "reuse", config))
        cells.append(oracle_replay(app, config))
    return cells


def _oracle_reduce(results, scale):
    config = default_config(scale)
    rows: list[list[object]] = []
    gaps: dict[str, float] = {}
    for app in ORACLE_APPS:
        bam = results[replay(app, "bam", config)]
        reuse = results[replay(app, "reuse", config)]
        oracle = results[oracle_replay(app, config)]
        s_reuse = reuse.speedup_over(bam)
        s_oracle = oracle.speedup_over(bam)
        gaps[app] = s_oracle / s_reuse
        rows.append([app_label(app), s_reuse, s_oracle, gaps[app]])
    rows.append(["Average", "-", "-", arithmetic_mean(list(gaps.values()))])
    return [
        ExperimentResult(
            name="ext-oracle",
            title="Extension: GMT-Reuse vs its perfect-prediction oracle (speedup over BaM)",
            headers=["app", "GMT-Reuse", "oracle", "oracle/reuse"],
            rows=rows,
            notes=[
                "oracle = exact future RVTD + whole-trace Eq. 2 fit; same tiers,"
                " heuristic, and transfer machinery",
                "a ratio near 1 means prediction error is not the limiter",
            ],
            extras={"gaps": gaps},
        )
    ]


ORACLE_SPEC = ExperimentSpec(
    name="ext-oracle", cells=_oracle_cells, reduce=_oracle_reduce
)


def run_oracle_gap(scale: int = DEFAULT_SCALE) -> ExperimentResult:
    return run_spec(ORACLE_SPEC, scale=scale)[0]


# ----------------------------------------------------------------------
# SSD scaling
# ----------------------------------------------------------------------
def _ssd_configs(scale):
    base = default_config(scale)
    return base, {
        count: replace(base, platform=base.platform.with_ssd_array(count))
        for count in SSD_COUNTS
    }


def _ssd_cells(scale):
    base, configs = _ssd_configs(scale)
    return [
        replay(app, kind, configs[count], trace_config=base)  # same traces everywhere
        for count in SSD_COUNTS
        for app in SSD_SCALING_APPS
        for kind in ("bam", "reuse")
    ]


def _ssd_reduce(results, scale):
    base, configs = _ssd_configs(scale)
    rows: list[list[object]] = []
    means: dict[int, float] = {}
    for count in SSD_COUNTS:
        config = configs[count]
        speedups = []
        bottlenecks = set()
        for app in SSD_SCALING_APPS:
            bam = results[replay(app, "bam", config, trace_config=base)]
            reuse = results[replay(app, "reuse", config, trace_config=base)]
            speedups.append(reuse.speedup_over(bam))
            bottlenecks.add(reuse.breakdown.bottleneck)
        means[count] = arithmetic_mean(speedups)
        rows.append([count, means[count], ", ".join(sorted(bottlenecks))])
    return [
        ExperimentResult(
            name="ext-ssd-scaling",
            title="Extension: GMT-Reuse speedup over BaM vs SSD array size",
            headers=["SSDs", "mean speedup (4 high-reuse apps)", "GMT bottlenecks"],
            rows=rows,
            notes=[
                "Tier-2's value comes from relieving the SSD; enough drives"
                " shift the bottleneck and shrink the gap"
            ],
            extras={"means": means},
        )
    ]


SSD_SPEC = ExperimentSpec(
    name="ext-ssd-scaling", cells=_ssd_cells, reduce=_ssd_reduce
)


def run_ssd_scaling(scale: int = DEFAULT_SCALE) -> ExperimentResult:
    return run_spec(SSD_SPEC, scale=scale)[0]


# ----------------------------------------------------------------------
# Prefetch study
# ----------------------------------------------------------------------
def _prefetch_cells(scale):
    base = default_config(scale)
    pf_config = replace(base, prefetch_degree=4)
    cells = []
    for app in PREFETCH_APPS:
        cells.append(replay(app, "reuse", base))
        cells.append(replay(app, "reuse", pf_config))
    return cells


def _prefetch_reduce(results, scale):
    base = default_config(scale)
    pf_config = replace(base, prefetch_degree=4)
    rows: list[list[object]] = []
    deltas: dict[str, float] = {}
    for app in PREFETCH_APPS:
        plain = results[replay(app, "reuse", base)]
        prefetch = results[replay(app, "reuse", pf_config)]
        stats = prefetch.stats
        deltas[app] = prefetch.elapsed_ns / plain.elapsed_ns
        rows.append(
            [
                app_label(app),
                deltas[app],
                stats.prefetches_issued,
                stats.prefetch_accuracy,
                stats.ssd_page_reads / max(1, plain.stats.ssd_page_reads),
            ]
        )
    return [
        ExperimentResult(
            name="ext-prefetch",
            title="Extension: adding a sequential prefetcher to GMT-Reuse (degree 4)",
            headers=["app", "time vs no-prefetch", "issued", "accuracy", "SSD reads ratio"],
            rows=rows,
            notes=[
                "in the SSD-bandwidth-bound regime prefetching trades latency"
                " (plentiful, thanks to fault parallelism) for bandwidth"
                " (scarce) — demand-only movement, as the paper chose, wins"
            ],
            extras={"time_ratios": deltas},
        )
    ]


PREFETCH_SPEC = ExperimentSpec(
    name="ext-prefetch", cells=_prefetch_cells, reduce=_prefetch_reduce
)


def run_prefetch_study(scale: int = DEFAULT_SCALE) -> ExperimentResult:
    return run_spec(PREFETCH_SPEC, scale=scale)[0]


# ----------------------------------------------------------------------
# Model validation
# ----------------------------------------------------------------------
def _model_configs(scale):
    base = default_config(scale)
    return {"analytic": base, "queueing": replace(base, time_model="queueing")}


def _model_cells(scale):
    configs = _model_configs(scale)
    return [
        replay(app, kind, config)
        for app in MODEL_VALIDATION_APPS
        for config in configs.values()
        for kind in ("bam", "reuse")
    ]


def _model_reduce(results, scale):
    """Analytic (roofline) vs queueing time model, same runs.

    Where bandwidth binds (the paper's single-SSD platform) the two agree
    almost exactly — validating the roofline's "maximum of bottlenecks"
    assumption.  For the CPU-orchestrated HMM, whose handler slots queue,
    the queueing model shows the *extra* serialization the roofline's
    averaged fault term understates.
    """
    configs = _model_configs(scale)
    rows: list[list[object]] = []
    ratios: dict[str, float] = {}
    for app in MODEL_VALIDATION_APPS:
        speeds = {}
        for label, config in configs.items():
            bam = results[replay(app, "bam", config)]
            reuse = results[replay(app, "reuse", config)]
            speeds[label] = reuse.speedup_over(bam)
        ratios[app] = speeds["queueing"] / speeds["analytic"]
        rows.append(
            [app_label(app), speeds["analytic"], speeds["queueing"], ratios[app]]
        )
    return [
        ExperimentResult(
            name="ext-model-validation",
            title="Extension: analytic vs queueing time model (GMT-Reuse speedup over BaM)",
            headers=["app", "analytic", "queueing", "queueing/analytic"],
            rows=rows,
            notes=[
                "agreement validates the roofline model on the paper's"
                " bandwidth-bound platform"
            ],
            extras={"ratios": ratios},
        )
    ]


MODEL_SPEC = ExperimentSpec(
    name="ext-model-validation", cells=_model_cells, reduce=_model_reduce
)


def run_model_validation(scale: int = DEFAULT_SCALE) -> ExperimentResult:
    return run_spec(MODEL_SPEC, scale=scale)[0]


# ----------------------------------------------------------------------
# Combined spec
# ----------------------------------------------------------------------
_SUBSPECS = (ORACLE_SPEC, SSD_SPEC, PREFETCH_SPEC, MODEL_SPEC)


def _cells(scale):
    cells = []
    for sub in _SUBSPECS:
        cells.extend(sub.cells(scale))
    return cells


def _reduce(results, scale):
    out = []
    for sub in _SUBSPECS:
        out.extend(sub.reduce(results, scale))
    return out


SPEC = ExperimentSpec(
    name="extensions",
    title="Oracle gap, SSD scaling, prefetching, model validation",
    cells=_cells,
    reduce=_reduce,
)
