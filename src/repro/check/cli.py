"""``gmt-check`` — the differential conformance harness, as a command.

Examples::

    gmt-check hotspot --scale 8192                  # full default matrix
    gmt-check bfs --scale 8192 --prefetch-degree 2  # exercise prefetching
    gmt-check bfs --time-model queueing             # + link conservation
    gmt-check hotspot --check-every 500             # audit mid-replay too
    gmt-check hotspot --inject dup-resident         # must exit non-zero
    gmt-check --list                                # identity catalogue

Exit status: 0 when every identity holds, 1 on any violation (including
the deliberately injected ones — that is the self-test), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys

from repro import flags
from repro.errors import GMTError


def _build_parser() -> argparse.ArgumentParser:
    from repro.check.differential import DEFAULT_RUNTIMES, INJECTIONS
    from repro.experiments.harness import RUNTIME_KINDS
    from repro.workloads.registry import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(
        prog="gmt-check",
        description="Differential conformance: replay one trace through "
        "every runtime and audit the stats-identity catalogue",
    )
    parser.add_argument(
        "workload",
        nargs="?",
        choices=sorted(WORKLOAD_NAMES),
        help="Table 2 application (omit with --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the identity catalogue and exit",
    )
    flags.add(parser, "--scale", "--oversubscription", "--seed")
    parser.add_argument(
        "--runtimes",
        nargs="+",
        default=list(DEFAULT_RUNTIMES),
        choices=list(RUNTIME_KINDS),
        help=f"runtimes to replay (default: {' '.join(DEFAULT_RUNTIMES)})",
    )
    # Every replay is audited after the run either way.
    flags.add(parser, "--check-every")
    parser.add_argument(
        "--prefetch-degree",
        type=int,
        default=0,
        help="sequential prefetch window; >0 exercises the "
        "prefetch/eviction accounting paths (default 0)",
    )
    parser.add_argument(
        "--time-model",
        default="bottleneck",
        choices=["bottleneck", "queueing"],
        help="execution-time model; 'queueing' adds the link-conservation "
        "identities (default: bottleneck)",
    )
    parser.add_argument(
        "--no-engines",
        action="store_true",
        help="skip the scalar-vs-vector differential (the batched replay "
        "against the per-warp reference)",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="skip the telemetry-parity differential (the same pair, "
        "instrumented: window streams, digest buckets, counter tracks, "
        "anomaly findings and lifecycle events must be byte-equal)",
    )
    parser.add_argument(
        "--telemetry-window",
        type=int,
        metavar="N",
        default=1_997,
        help="snapshot interval for the telemetry-parity replays "
        "(default 1997 — a prime, so hit batches straddle window "
        "boundaries)",
    )
    parser.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the degenerate-BaM and determinism checks",
    )
    parser.add_argument(
        "--no-serve",
        action="store_true",
        help="skip the 1-tenant-serve-equals-solo check",
    )
    parser.add_argument(
        "--inject",
        choices=sorted(INJECTIONS),
        default=None,
        help="corrupt the first 3-tier runtime after its replay — the "
        "audit must then FAIL (detection self-test)",
    )
    flags.add(parser, "--tier1-policy", "--tier2-policy")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-check``."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        from repro.check.identities import CATALOG

        width = max(len(name) for name, _ in CATALOG)
        for name, description in CATALOG:
            print(f"{name:<{width}}  {description}")
        return 0
    if args.workload is None:
        parser.error("a workload is required (or --list)")

    from repro.check.differential import run_conformance

    try:
        report = run_conformance(
            args.workload,
            scale=args.scale,
            oversubscription=args.oversubscription,
            seed=args.seed,
            runtimes=tuple(args.runtimes),
            check_every=args.check_every,
            prefetch_degree=args.prefetch_degree,
            time_model=args.time_model,
            metamorphic=not args.no_metamorphic,
            serve=not args.no_serve,
            inject=args.inject,
            tier1_policy=args.tier1_policy,
            tier2_policy=args.tier2_policy,
            engines=not args.no_engines,
            telemetry=not args.no_telemetry,
            telemetry_window=args.telemetry_window,
        )
    except GMTError as exc:
        print(f"gmt-check: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    sys.exit(main())
