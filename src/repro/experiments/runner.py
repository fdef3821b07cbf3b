"""CLI entry point: regenerate any (or every) paper table/figure.

Usage::

    python -m repro.experiments fig8 fig9 --scale 256
    python -m repro.experiments all --jobs 8
    gmt-experiments table2 --no-cache

Experiments are registered declaratively: every module under
``repro.experiments`` exports an
:class:`~repro.experiments.spec.ExperimentSpec`, and the CLI executes its
cells on the :mod:`~repro.experiments.engine` — in parallel with
``--jobs N``, backed by the content-addressed on-disk result cache
(``--cache-dir``, ``--no-cache``, ``--force``).  Interrupted ``all``
runs are resumable: completed cells are served from the cache.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
import time

from repro import flags
from repro.experiments.engine import Engine, ResultCache
from repro.experiments.harness import RunOptions, default_config
from repro.experiments.spec import ExperimentSpec, run_spec

#: Registry of experiment names — each maps to a module exporting SPEC.
EXPERIMENTS = (
    "table2",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "extensions",
    "serve_mix",
    "isolation",
    "capacity",
)


def get_spec(name: str) -> ExperimentSpec:
    """The registered :class:`ExperimentSpec` for ``name``.

    Raises ``SystemExit`` for unknown names (CLI contract).
    """
    if name not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {name!r}; choose from: {', '.join(EXPERIMENTS)}"
        )
    module = importlib.import_module(f"repro.experiments.{name}")
    return module.SPEC


def run_experiment(name: str, scale: int, engine: Engine | None = None) -> list:
    """Run one experiment through the engine; returns its results."""
    return run_spec(get_spec(name), scale=scale, engine=engine)


def _progress_printer(line: str) -> None:
    print(line, file=sys.stderr)


def _drain_anomalies(spool_dir: str, drained: dict[str, int]) -> list[dict]:
    """New findings spooled since the last drain (see
    ``RunOptions.anomaly_spool``); ``drained`` counts the lines of each
    spool file already reported, so each experiment prints only the
    findings of the cells it executed (``--force`` re-executions too)."""
    import json
    from pathlib import Path

    findings: list[dict] = []
    for path in sorted(Path(spool_dir).glob("*.anomalies.jsonl")):
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        start = drained.get(path.name, 0)
        drained[path.name] = len(lines)
        findings.extend(json.loads(line) for line in lines[start:] if line)
    return findings


def _anomaly_summary(name: str, findings: list[dict]) -> str:
    if not findings:
        return f"[{name}] anomaly scan: no findings in newly executed cells"
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding["rule"]] = by_rule.get(finding["rule"], 0) + 1
    rules = ", ".join(f"{rule}={count}" for rule, count in sorted(by_rule.items()))
    lines = [f"[{name}] anomaly scan: {len(findings)} finding(s) ({rules})"]
    for finding in sorted(
        findings, key=lambda f: (f["app"], f["kind"], f["window"], f["rule"])
    ):
        lines.append(f"  {finding['app']}/{finding['kind']}: {finding['message']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gmt-experiments",
        description="Regenerate the GMT paper's tables and figures",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    flags.add(parser, "--scale", "--jobs", "--cache-dir", "--no-cache")
    parser.add_argument(
        "--force",
        action="store_true",
        help="re-execute every cell even when cached (results are re-stored)",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="export per-replay telemetry (Perfetto trace, Prometheus "
        "snapshot, window stream) for every uncached run into DIR",
    )
    parser.add_argument(
        "--telemetry-lifecycle",
        action="store_true",
        help="with --telemetry-dir: also record the page-lifecycle "
        "flight recorder per replay and export <app>-<kind>.lifecycle.jsonl "
        "(query with gmt-why --from)",
    )
    flags.add(parser, "--check-every", *flags.ANOMALY, "--engine", "--no-ledger")
    parser.set_defaults(anomaly_window=10_000)
    args = flags.parse(parser, argv)
    if args.telemetry_lifecycle and args.telemetry_dir is None:
        parser.error("--telemetry-lifecycle needs --telemetry-dir")
    options = RunOptions(
        engine=args.engine,
        check_every=args.check_every,
        telemetry_dir=args.telemetry_dir,
        telemetry_lifecycle=args.telemetry_lifecycle,
        anomaly_spool=(
            tempfile.mkdtemp(prefix="gmt-anomalies-") if args.anomaly_scan else None
        ),
        anomaly_window=args.anomaly_window,
        anomaly_thrash=args.anomaly_thrash,
        anomaly_bypass=args.anomaly_bypass,
        anomaly_spike=args.anomaly_spike,
    )

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    # Validate every name up-front so a typo fails before hours of work.
    specs = {name: get_spec(name) for name in names}

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    engine = Engine(
        jobs=args.jobs,
        cache=cache,
        force=args.force,
        progress=_progress_printer,
        options=options,
    )

    failures: dict[str, Exception] = {}
    anomaly_drained: dict[str, int] = {}
    anomaly_total = 0
    run_start = time.time()
    for name in names:
        start = time.time()
        try:
            results = run_spec(specs[name], scale=args.scale, engine=engine)
        except KeyboardInterrupt:
            print(
                f"\n[interrupted during {name}; completed cells are cached — "
                "rerun the same command to resume]",
                file=sys.stderr,
            )
            raise
        except Exception as exc:  # collect, keep going, fail at the end
            failures[name] = exc
            print(f"[{name} FAILED: {type(exc).__name__}: {exc}]\n", file=sys.stderr)
            continue
        for result in results:
            print(result.to_text())
            print()
        if options.anomaly_spool is not None:
            findings = _drain_anomalies(options.anomaly_spool, anomaly_drained)
            anomaly_total += len(findings)
            print(_anomaly_summary(name, findings))
        print(f"[{name} completed in {time.time() - start:.1f}s]\n")

    print(f"[engine] {engine.stats.summary()}")
    if not args.no_ledger:
        from repro.core.factory import resolve_engine_reason
        from repro.obs.ledger import record_run

        # The resolution every GMT replay cell sees under these options
        # (baseline runtimes follow the same rule).
        resolved, reason = resolve_engine_reason(
            options.engine, default_config(args.scale), **options.instruments()
        )
        record_run(
            "gmt-experiments",
            wall_s=time.time() - run_start,
            params={
                "experiments": sorted(names),
                "scale": args.scale,
                "engine_reason": reason,
            },
            metrics={
                "experiments": len(names),
                "failures": len(failures),
                "cells_executed": engine.stats.executed,
                **({"anomaly_findings": anomaly_total} if args.anomaly_scan else {}),
            },
            engine=resolved,
        )
    if failures:
        summary = ", ".join(
            f"{name} ({type(exc).__name__})" for name, exc in failures.items()
        )
        print(
            f"[{len(failures)}/{len(names)} experiments failed: {summary}]",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
