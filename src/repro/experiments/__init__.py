"""Experiment harness: one module per paper table/figure.

Every module exports a declarative
:class:`~repro.experiments.spec.ExperimentSpec` — ``cells(scale)``
enumerates the independent replays the experiment needs and
``reduce(results, scale)`` folds them into the rows/series the paper
reports (see DESIGN.md's per-experiment index).  The package-level CLI
executes the cells on the :mod:`~repro.experiments.engine` and prints
the tables::

    python -m repro.experiments fig8 --scale 256
    python -m repro.experiments all --jobs 8

Cells are deduplicated and cached: once per process (figures sharing
the same runs — 8, 9, 10, 14 — pay for them once) and, through the
CLI's content-addressed on-disk cache, across processes too, which
makes interrupted ``all`` runs resumable.  Run one experiment with
:func:`~repro.experiments.spec.run_spec`; an ``Engine(options=...)``
:class:`~repro.experiments.harness.RunOptions` value sets how its
replays run (engine, in-run audits, telemetry, anomaly scan).
"""

from repro.experiments.engine import Cell, Engine, EngineStats, ResultCache, run_cells
from repro.experiments.harness import ExperimentResult, default_config
from repro.experiments.spec import CellResults, ExperimentSpec, run_spec

__all__ = [
    "Cell",
    "CellResults",
    "Engine",
    "EngineStats",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultCache",
    "default_config",
    "run_cells",
    "run_spec",
]
