"""Generic configuration sweeps — build your own sensitivity study.

The paper's section 3.5 sweeps (over-subscription, Tier-2:Tier-1 ratio,
Tier-1 size) are instances of one pattern: vary a knob, rerun the same
apps through a runtime pair, report speedups.  :func:`sweep_config`
generalises it to *any* :class:`~repro.core.config.GMTConfig` field (and,
via dotted ``platform.<field>`` names, any platform constant):

>>> result = sweep_config(
...     "platform.ssd_read_latency_ns",
...     [80e3, 130e3, 200e3],
...     apps=("srad", "hotspot"),
... )
>>> print(result.to_text())
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.metrics import arithmetic_mean
from repro.core.config import DEFAULT_SCALE, GMTConfig
from repro.errors import ConfigError
from repro.experiments.engine import Engine
from repro.experiments.harness import (
    ExperimentResult,
    app_label,
    default_config,
    replay,
)


def apply_override(config: GMTConfig, field: str, value) -> GMTConfig:
    """Return ``config`` with ``field`` set to ``value``.

    ``field`` is a GMTConfig field name, or ``platform.<name>`` for a
    :class:`~repro.sim.latency.PlatformModel` constant.
    """
    if field.startswith("platform."):
        inner = field[len("platform.") :]
        if inner not in {f.name for f in _platform_fields()}:
            raise ConfigError(f"unknown platform field {inner!r}")
        return replace(config, platform=replace(config.platform, **{inner: value}))
    if field not in {f.name for f in _config_fields()}:
        raise ConfigError(f"unknown config field {field!r}")
    return replace(config, **{field: value})


def _config_fields():
    import dataclasses

    return dataclasses.fields(GMTConfig)


def _platform_fields():
    import dataclasses

    from repro.sim.latency import PlatformModel

    return dataclasses.fields(PlatformModel)


def sweep_config(
    field: str,
    values: list,
    apps: tuple[str, ...] = ("srad", "pagerank", "hotspot"),
    kind: str = "reuse",
    baseline_kind: str = "bam",
    scale: int = DEFAULT_SCALE,
    vary_baseline: bool = True,
    engine: Engine | None = None,
) -> ExperimentResult:
    """Speedup of ``kind`` over ``baseline_kind`` across ``values``.

    Args:
        field: config field (or ``platform.<name>``) to vary.
        values: the sweep points.
        apps: Table 2 apps to run (the trace is held fixed per app).
        vary_baseline: if True the baseline is re-run per value (the knob
            affects it too, e.g. a platform constant); if False the
            baseline uses the unmodified config (policy-only knobs).
        engine: optional :class:`~repro.experiments.engine.Engine` — the
            sweep's replays are engine cells, so ``Engine(jobs=N)`` runs
            the whole grid in parallel and a cache-backed engine makes
            repeated sweeps near-free.

    Returns:
        An :class:`ExperimentResult` with one row per sweep value and a
        per-app speedup column, plus row means; ``extras["means"]`` maps
        value -> mean speedup.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    base = default_config(scale)
    engine = engine if engine is not None else Engine()

    def cells_for(value):
        config = apply_override(base, field, value)
        baseline_config = config if vary_baseline else base
        return {
            app: (
                replay(app, baseline_kind, baseline_config, trace_config=base),
                replay(app, kind, config, trace_config=base),  # fixed traces
            )
            for app in apps
        }

    grid = {value: cells_for(value) for value in values}
    all_cells = [c for per_app in grid.values() for pair in per_app.values() for c in pair]
    results = engine.run_cells(all_cells, group=f"sweep-{field}")

    rows: list[list[object]] = []
    means: dict[object, float] = {}
    for value in values:
        speedups = []
        row: list[object] = [value]
        for app in apps:
            baseline_cell, result_cell = grid[value][app]
            s = results[result_cell].speedup_over(results[baseline_cell])
            speedups.append(s)
            row.append(s)
        means[value] = arithmetic_mean(speedups)
        row.append(means[value])
        rows.append(row)
    return ExperimentResult(
        name=f"sweep-{field.replace('.', '-')}",
        title=f"Sweep: {field} (speedup of {kind} over {baseline_kind})",
        headers=[field] + [app_label(a) for a in apps] + ["mean"],
        rows=rows,
        extras={"means": means, "field": field, "values": list(values)},
    )
