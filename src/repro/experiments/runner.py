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
import time

from repro.core.config import DEFAULT_SCALE
from repro.experiments.engine import Engine, ResultCache
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


def _drain_anomalies(spool_dir: str, seen: set[str]) -> list[dict]:
    """New findings spooled since the last drain (see
    ``repro.experiments.harness.set_anomaly_scan``); ``seen`` carries the
    raw lines already reported so each experiment prints only its own."""
    import json
    from pathlib import Path

    findings: list[dict] = []
    for path in sorted(Path(spool_dir).glob("*.anomalies.jsonl")):
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        for line in lines:
            if line and line not in seen:
                seen.add(line)
                findings.append(json.loads(line))
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
    parser.add_argument(
        "--scale",
        type=int,
        default=DEFAULT_SCALE,
        help=f"byte-scale divisor vs the paper's platform (default {DEFAULT_SCALE})",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes for cell execution (default 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="on-disk result cache location (default ~/.cache/gmt-results, "
        "or $GMT_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run",
    )
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
    parser.add_argument(
        "--check-every",
        type=int,
        metavar="N",
        default=None,
        help="run the conformance audit (structural invariants + stats "
        "identities, see gmt-check) every N coalesced accesses on every "
        "uncached replay; a violation fails the experiment",
    )
    parser.add_argument(
        "--anomaly-scan",
        action="store_true",
        help="attach windowed telemetry to every uncached replay and scan "
        "its window stream for thrash / bypass-storm / latency-spike "
        "anomalies; findings are summarised per experiment (cached cells "
        "are reused as-is and contribute no findings — use --force to "
        "rescan everything)",
    )
    parser.add_argument(
        "--anomaly-window",
        type=int,
        metavar="N",
        default=10_000,
        help="snapshot interval (coalesced accesses) for --anomaly-scan "
        "windows (default 10000)",
    )
    parser.add_argument(
        "--anomaly-thrash",
        type=float,
        metavar="F",
        default=0.5,
        help="flag a window when Tier-1 evictions per access exceed F "
        "(default 0.5)",
    )
    parser.add_argument(
        "--anomaly-bypass",
        type=float,
        metavar="F",
        default=0.75,
        help="flag a window when the fraction of Tier-1 evictions that "
        "bypassed Tier-2 exceeds F (default 0.75)",
    )
    parser.add_argument(
        "--anomaly-spike",
        type=float,
        metavar="F",
        default=3.0,
        help="flag a window whose mean fault latency exceeds F x the "
        "trailing mean (default 3.0)",
    )
    from repro.core.config import ENGINE_NAMES

    parser.add_argument(
        "--engine",
        default=None,
        choices=list(ENGINE_NAMES),
        help="replay engine for every uncached cell: 'scalar' (reference "
        "loop), 'vector' (byte-identical batch engine), or 'auto' "
        "(vector whenever telemetry/periodic checks are off). "
        "Default: the config's engine ('auto')",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append this run to the run ledger "
        "(benchmarks/results/ledger.jsonl or $GMT_LEDGER_PATH)",
    )
    args = parser.parse_args(argv)
    from repro.experiments import harness

    try:
        return _run(parser, args)
    finally:
        # The flags configure process-wide harness state; don't leak it
        # into later in-process use.
        harness.set_telemetry_dir(None)
        harness.set_check_every(None)
        harness.set_engine(None)
        harness.set_anomaly_scan(None)


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.telemetry_lifecycle and args.telemetry_dir is None:
        parser.error("--telemetry-lifecycle needs --telemetry-dir")
    if args.telemetry_dir is not None:
        from repro.experiments.harness import set_telemetry_dir

        set_telemetry_dir(args.telemetry_dir, lifecycle=args.telemetry_lifecycle)
    if args.check_every is not None:
        if args.check_every < 1:
            parser.error("--check-every must be >= 1")
        from repro.experiments.harness import set_check_every

        set_check_every(args.check_every)
    if args.engine is not None:
        from repro.experiments.harness import set_engine

        set_engine(args.engine)
    anomaly = None
    if args.anomaly_scan:
        import tempfile

        from repro.errors import GMTError
        from repro.experiments.harness import set_anomaly_scan
        from repro.obs.anomaly import AnomalyDetector

        try:  # validate thresholds up front, not inside a pool worker
            AnomalyDetector(
                thrash_evictions_per_access=args.anomaly_thrash,
                bypass_fraction=args.anomaly_bypass,
                latency_spike_factor=args.anomaly_spike,
            )
        except GMTError as exc:
            parser.error(str(exc))
        if args.anomaly_window < 1:
            parser.error("--anomaly-window must be >= 1")
        anomaly = {
            "spool_dir": tempfile.mkdtemp(prefix="gmt-anomalies-"),
            "window": args.anomaly_window,
            "thrash": args.anomaly_thrash,
            "bypass": args.anomaly_bypass,
            "spike": args.anomaly_spike,
        }
        set_anomaly_scan(
            anomaly["spool_dir"],
            window=anomaly["window"],
            thrash=anomaly["thrash"],
            bypass=anomaly["bypass"],
            spike=anomaly["spike"],
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
        telemetry_dir=args.telemetry_dir,
        telemetry_lifecycle=args.telemetry_lifecycle,
        check_every=args.check_every,
        engine=args.engine,
        anomaly=anomaly,
    )

    failures: dict[str, Exception] = {}
    anomaly_seen: set[str] = set()
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
        if anomaly is not None:
            findings = _drain_anomalies(anomaly["spool_dir"], anomaly_seen)
            anomaly_total += len(findings)
            print(_anomaly_summary(name, findings))
        print(f"[{name} completed in {time.time() - start:.1f}s]\n")

    print(f"[engine] {engine.stats.summary()}")
    if not args.no_ledger:
        from repro.core.factory import resolve_engine_reason
        from repro.experiments.harness import default_config
        from repro.obs.ledger import record_run

        # The resolution every GMT replay cell sees under the current
        # instrumentation flags (baseline runtimes follow the same rule).
        resolved, reason = resolve_engine_reason(
            args.engine,
            default_config(args.scale),
            recorder=args.telemetry_lifecycle,
            checks=args.check_every is not None,
            telemetry=args.telemetry_dir is not None or anomaly is not None,
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
                **({"anomaly_findings": anomaly_total} if anomaly is not None else {}),
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
