"""Command-line tools.

``gmt-sim``           — run one workload through one or more runtimes and
                        print the comparison (speedups, I/O, hit rates).
``gmt-characterize``  — instrumented analysis of a workload: reuse %,
                        Eq. 1 class fractions, miss-ratio-curve points.
``gmt-serve``         — serve a mix of tenant workloads over one shared
                        hierarchy (:mod:`repro.serve`): per-tenant
                        results, slowdown vs solo, fairness.
``gmt-why``           — causal diagnosis over the page-lifecycle flight
                        recorder (:mod:`repro.obs.lifecycle`): why an
                        access missed, a page's tier journey, the
                        costliest mispredictions, residency, anomalies.
``gmt-experiments``   — regenerate paper tables/figures
                        (:mod:`repro.experiments.runner`).
``gmt-bench``         — record / gate the perf baseline
                        (:mod:`repro.bench`).

All tools take ``--scale`` (byte-scale divisor vs the paper's platform)
and a Table 2 workload name.
"""

from __future__ import annotations

import argparse
import sys

from repro import flags
from repro.analysis.characterize import characterize_workload, collect_access_rds
from repro.analysis.compare import comparison_table
from repro.analysis.mrc import miss_ratio_curve
from repro.analysis.report import render_histogram, render_table
from repro.sim.platforms import PLATFORM_PRESETS, get_platform
from repro.experiments.harness import (
    RUNTIME_KINDS,
    RUNTIME_LABELS,
    build_runtime,
    default_config,
    get_workload,
)
from repro.reuse.classifier import ReuseClass
from repro.units import format_bytes
from repro.workloads.registry import WORKLOAD_NAMES


def _common_parser(prog: str, description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "workload", choices=sorted(WORKLOAD_NAMES), help="Table 2 application"
    )
    flags.add(parser, "--scale", "--oversubscription", "--seed")
    return parser


def _scan_anomalies(args, telemetry, label: str) -> list:
    """Run the anomaly detector with the CLI's thresholds; print findings."""
    anomalies = flags.anomaly_detector(args).scan_and_annotate(telemetry)
    windows = len(telemetry.windows())
    if not anomalies:
        print(f"{label}: no anomalies over {windows} windows of "
              f"{args.anomaly_window} accesses")
    else:
        print(f"{label}: {len(anomalies)} anomalies over {windows} windows:")
        for anomaly in anomalies:
            print(f"  {anomaly}")
    return anomalies


def main_sim(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-sim``."""
    parser = _common_parser("gmt-sim", "Replay one workload through runtimes")
    parser.add_argument(
        "--runtimes",
        nargs="+",
        default=["bam", "reuse"],
        choices=list(RUNTIME_KINDS),
        help="runtimes to compare (default: bam reuse)",
    )
    parser.add_argument(
        "--platform",
        default="paper",
        choices=sorted(PLATFORM_PRESETS),
        help="hardware preset (default: the paper's Table 1 testbed)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a merged Chrome/Perfetto trace of all runtimes to PATH "
        "(open via ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a Prometheus text-format metrics snapshot of all "
        "runtimes to PATH",
    )
    parser.add_argument(
        "--lifecycle-out",
        metavar="PATH",
        default=None,
        help="record page-lifecycle events (flight recorder) and write "
        "them to PATH as JSONL (one file, 'kind' key tells runtimes "
        "apart; feed back via gmt-why --from)",
    )
    parser.add_argument(
        "--lifecycle-sample-rate",
        type=float,
        metavar="P",
        default=None,
        help="record the lifecycle stream for a deterministic hash-"
        "sampled fraction P of pages (0 < P <= 1) instead of the full "
        "flight recorder; sampled pages keep their complete journeys, "
        "and the sampled stream is batch-capable so --engine auto "
        "stays on the vector engine",
    )
    flags.add(parser, "--engine", "--check-every", *flags.ANOMALY)
    args = flags.parse(parser, argv)

    config = default_config(args.scale, platform=get_platform(args.platform))
    workload = get_workload(
        args.workload, config, oversubscription=args.oversubscription, seed=args.seed
    )
    lifecycle_on = (
        args.lifecycle_out is not None or args.lifecycle_sample_rate is not None
    )
    telemetry_on = (
        args.trace_out is not None
        or args.metrics_out is not None
        or lifecycle_on
        or args.anomaly_scan
    )
    full_lifecycle = lifecycle_on and args.lifecycle_sample_rate is None
    from repro.core.factory import resolve_engine_reason

    engine, engine_reason = resolve_engine_reason(
        args.engine,
        config,
        recorder=full_lifecycle,
        checks=args.check_every is not None,
        telemetry=telemetry_on,
    )
    telemetries = []
    results = {}
    resolution = (engine, engine_reason)
    for kind in args.runtimes:
        runtime = build_runtime(kind, config, engine=engine)
        runtime.engine_reason = engine_reason
        if args.check_every is not None:
            runtime.enable_periodic_checks(args.check_every)
        if telemetry_on:
            from repro.obs import Telemetry

            telemetries.append(
                runtime.attach_telemetry(
                    Telemetry(
                        lifecycle=full_lifecycle,
                        lifecycle_sample_rate=args.lifecycle_sample_rate,
                        window=args.anomaly_window if args.anomaly_scan else 10_000,
                    )
                )
            )
        results[RUNTIME_LABELS[kind]] = runtime.run(workload)
        # Live resolution: a vector runtime that had to fall back to its
        # scalar replay (per-access instrument attached after the fact)
        # reports that here, not the up-front choice.
        resolution = runtime.engine_resolution()
    print("engine={} (reason={})".format(*resolution))
    if args.anomaly_scan:
        for kind, telemetry in zip(args.runtimes, telemetries):
            _scan_anomalies(args, telemetry, RUNTIME_LABELS[kind])
    baseline = RUNTIME_LABELS["bam"] if "bam" in args.runtimes else None
    print(
        comparison_table(
            results,
            baseline=baseline,
            title=(
                f"{workload.name}: footprint {workload.footprint_pages} pages, "
                f"Tier-1 {config.tier1_frames} / Tier-2 {config.tier2_frames} frames, "
                f"platform '{args.platform}'"
            ),
        )
    )
    if args.trace_out is not None:
        from repro.obs.export import write_chrome_trace

        count = write_chrome_trace(
            args.trace_out,
            [(t.name, t.tracer) for t in telemetries],
            windows={t.name: t.windows() for t in telemetries},
            metadata={"engine": resolution[0], "engine_reason": resolution[1]},
        )
        print(f"wrote {count} trace events to {args.trace_out} (ui.perfetto.dev)")
    if args.metrics_out is not None:
        from repro.obs.export import write_prometheus

        write_prometheus(
            args.metrics_out,
            [t.registry for t in telemetries],
            header=["engine={} (reason={})".format(*resolution)],
        )
        print(f"wrote Prometheus snapshot to {args.metrics_out}")
    if args.lifecycle_out is not None:
        import json

        count = 0
        with open(args.lifecycle_out, "w", encoding="utf-8") as fh:
            for kind, telemetry in zip(args.runtimes, telemetries):
                if telemetry.lifecycle is None:
                    continue
                for event in telemetry.lifecycle.events():
                    fh.write(json.dumps({**event.to_dict(), "runtime": kind}) + "\n")
                    count += 1
        print(f"wrote {count} lifecycle events to {args.lifecycle_out}")
    return 0


def main_characterize(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-characterize``."""
    parser = _common_parser(
        "gmt-characterize", "Instrumented reuse analysis of one workload"
    )
    parser.add_argument(
        "--mrc-points",
        type=int,
        default=6,
        help="number of miss-ratio-curve capacities to report",
    )
    args = parser.parse_args(argv)

    config = default_config(args.scale)
    workload = get_workload(
        args.workload,
        config,
        oversubscription=args.oversubscription,
        seed=args.seed,
        jitter_warps=0,  # characterisation runs in program order
    )
    chars = characterize_workload(workload)
    rds = collect_access_rds(workload, config.tier1_frames, config.tier2_frames)
    fractions = rds.class_fractions()

    print(f"{workload.name}: {workload.description}")
    print(f"  footprint:           {chars.distinct_pages} pages")
    print(f"  coalesced accesses:  {chars.coalesced_accesses}")
    print(f"  page reuse:          {chars.reuse_percent:.2f}%")
    print(
        f"  total I/O demand:    "
        f"{format_bytes(chars.total_io_bytes(config.page_size))}"
    )
    print()
    print(
        render_histogram(
            ["short (fits Tier-1)", "medium (fits Tier-1+2)", "long (beyond)"],
            [
                fractions[ReuseClass.SHORT],
                fractions[ReuseClass.MEDIUM],
                fractions[ReuseClass.LONG],
            ],
            title="Eq. 1 class mix of reuses (Figure 7's bars)",
        )
    )

    mrc = miss_ratio_curve(workload)
    total = config.total_memory_frames
    capacities = [
        max(1, int(total * f))
        for f in [i / (args.mrc_points - 1) for i in range(1, args.mrc_points)]
    ]
    rows = [[c, mrc.miss_ratio(c)] for c in dict.fromkeys(capacities)]
    print()
    print(render_table(["capacity (pages)", "LRU miss ratio"], rows, title="Miss-ratio curve"))
    return 0


def _parse_tenants(spec: str) -> list:
    """Parse ``--tenants bfs,pagerank:2,hotspot`` into TenantSpecs.

    Each comma-separated entry is ``workload[:weight]``.
    """
    from repro.errors import ConfigError
    from repro.serve import TenantSpec

    specs = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, weight = entry.partition(":")
        try:
            specs.append(TenantSpec(name=name, workload=name, weight=float(weight) if weight else 1.0))
        except ValueError:
            raise ConfigError(f"bad tenant spec {entry!r}; want workload[:weight]") from None
    if not specs:
        raise ConfigError("--tenants needs at least one workload")
    return specs


def _serve_open_loop(args, config) -> int:
    """``gmt-serve --open-loop N``: the open-loop service simulator."""
    from repro.check.identities import assert_conformant, audit_split
    from repro.errors import ConformanceError
    from repro.serve import OpenLoopConfig, OpenLoopServer, TenantPopulation

    population = TenantPopulation(
        args.open_loop,
        seed=args.seed,
        workload=args.population_workload,
        slo_p50_ns=args.slo_p50,
        slo_p99_ns=args.slo_p99,
    )
    loop = OpenLoopConfig(
        requests=args.requests,
        arrival_process=args.arrival_process,
        arrival_rate_per_s=args.arrival_rate,
        epoch=args.epoch if args.epoch is not None else 8,
        seed=args.seed,
        max_backlog=args.max_backlog,
    )
    server = OpenLoopServer(config, population, loop)
    if args.check_every is not None:
        server.runtime.enable_periodic_checks(args.check_every)
    import time as _time

    wall_start = _time.perf_counter()
    outcome = server.run()
    wall_s = _time.perf_counter() - wall_start
    assert_conformant(server.runtime)
    violations = audit_split(server.runtime.stats, server.runtime.tenant_stats)
    if violations:
        raise ConformanceError(violations)
    print(outcome.to_table())
    engine, reason = server.engine_resolution()
    print(f"engine={engine} (reason={reason})")
    if not args.no_ledger:
        from repro.obs.ledger import record_run

        stats = server.runtime.stats
        record_run(
            "gmt-serve",
            wall_s=wall_s,
            engine=engine,
            params={
                "mode": "open-loop",
                "tenants": args.open_loop,
                "workload": args.population_workload,
                "arrival_process": args.arrival_process,
                "arrival_rate_per_s": args.arrival_rate,
                "requests": args.requests,
                "max_backlog": args.max_backlog,
                "epoch": loop.epoch,
                "scale": args.scale,
                "seed": args.seed,
            },
            accesses_per_sec=(
                stats.coalesced_accesses / wall_s if wall_s > 0 else 0.0
            ),
            metrics={
                "makespan_ns": outcome.makespan_ns,
                "requests_arrived": outcome.arrived,
                "requests_admitted": outcome.admitted,
                "requests_shed": outcome.shed,
                "requests_completed": outcome.completed,
                "shed_rate": outcome.shed_rate,
                "pressure_findings": outcome.pressure_findings,
                **(
                    {"req_p99_ns": outcome.p99_ns}
                    if outcome.p99_ns is not None
                    else {}
                ),
            },
            anomalies=outcome.pressure_findings,
        )
    return 0


def main_serve(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-serve``."""
    from repro.core.config import POLICY_NAMES
    from repro.policyzoo import GovernorConfig, policy_summary
    from repro.serve import (
        ARRIVAL_PROCESS_NAMES,
        QUOTA_MODES,
        SCHEDULER_NAMES,
        QuotaConfig,
        TenantServer,
        build_tenants,
    )

    zoo_lines = "\n".join(
        f"  {name:<8} {summary}" for name, summary in policy_summary()
    )
    parser = argparse.ArgumentParser(
        prog="gmt-serve",
        description="Serve a mix of tenant workloads over one shared GMT hierarchy",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            f"placement policies: {', '.join(POLICY_NAMES)}\n"
            f"disciplines:        {', '.join(SCHEDULER_NAMES)}\n"
            f"quota modes:        {', '.join(QUOTA_MODES)}\n"
            f"eviction policies (--tier1-policy / --tier2-policy):\n{zoo_lines}"
        ),
    )
    parser.add_argument(
        "--tenants",
        default=None,
        metavar="W1[:WEIGHT],W2[:WEIGHT],...",
        help="comma-separated Table 2 workloads, optionally weighted "
        "(e.g. bfs,pagerank:2,hotspot); required unless --open-loop",
    )
    parser.add_argument(
        "--epoch",
        type=int,
        metavar="N",
        default=None,
        help="warps emitted per scheduling decision (closed-loop default "
        "1 = the historical per-warp interleave; open-loop default 8)",
    )
    openloop = parser.add_argument_group(
        "open-loop serving (Poisson/bursty arrivals + admission control)"
    )
    openloop.add_argument(
        "--open-loop",
        type=int,
        metavar="TENANTS",
        default=None,
        help="serve an open-loop zipf-skewed population of TENANTS "
        "synthetic tenants instead of a closed-loop --tenants mix",
    )
    openloop.add_argument(
        "--arrival-process",
        default="poisson",
        choices=list(ARRIVAL_PROCESS_NAMES),
        help="open-loop arrival process (default: poisson)",
    )
    openloop.add_argument(
        "--arrival-rate",
        type=float,
        metavar="REQ_PER_S",
        default=2000.0,
        help="aggregate arrival rate in requests per simulated second "
        "(default 2000)",
    )
    openloop.add_argument(
        "--requests",
        type=int,
        metavar="N",
        default=1024,
        help="total open-loop requests to simulate (default 1024)",
    )
    openloop.add_argument(
        "--max-backlog",
        type=int,
        metavar="N",
        default=None,
        help="shed arrivals once this many requests are queued "
        "(default: unbounded; pressure anomalies still shed)",
    )
    openloop.add_argument(
        "--population-workload",
        default="keyvalue",
        metavar="NAME",
        help="synthetic workload every population tenant runs "
        "(default: keyvalue)",
    )
    parser.add_argument(
        "--policy",
        default="reuse",
        choices=list(POLICY_NAMES),
        help="placement policy of the shared hierarchy (default: reuse)",
    )
    # A non-default eviction policy gives each tenant its own instance.
    flags.add(parser, "--tier1-policy", "--tier2-policy")
    parser.add_argument(
        "--governor",
        action="store_true",
        help="rate-limit per-tenant tier migrations with a token bucket "
        "(TierBPF-style admission control)",
    )
    parser.add_argument(
        "--governor-rate",
        type=float,
        metavar="TOKENS",
        default=50.0,
        help="governor tokens granted per 1000 coalesced accesses "
        "(default 50)",
    )
    parser.add_argument(
        "--governor-burst",
        type=float,
        metavar="TOKENS",
        default=16.0,
        help="governor token-bucket burst capacity (default 16)",
    )
    parser.add_argument(
        "--governor-stall-ns",
        type=float,
        metavar="NS",
        default=25_000.0,
        help="modelled stall added to a throttled promotion (default 25000)",
    )
    parser.add_argument(
        "--discipline",
        default="round-robin",
        choices=list(SCHEDULER_NAMES),
        help="stream interleaving discipline (default: round-robin)",
    )
    parser.add_argument(
        "--quotas",
        default="none",
        choices=list(QUOTA_MODES),
        help="per-tenant tier frame quotas: none, static caps, or "
        "dynamic with idle reclaim (default: none)",
    )
    flags.add(parser, "--scale", "--oversubscription", "--seed")
    parser.add_argument(
        "--platform",
        default="paper",
        choices=sorted(PLATFORM_PRESETS),
        help="hardware preset (default: the paper's Table 1 testbed)",
    )
    parser.add_argument(
        "--no-solo",
        action="store_true",
        help="skip the solo baseline replays (no slowdown/fairness columns)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Perfetto trace with per-tenant lanes to PATH",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a Prometheus snapshot with tenant-labelled series to PATH",
    )
    parser.add_argument(
        "--slo-p50",
        type=float,
        metavar="NS",
        default=None,
        help="per-tenant p50 miss-latency SLO target in ns (applied to "
        "every tenant; violations are marked '!' in the table)",
    )
    parser.add_argument(
        "--slo-p99",
        type=float,
        metavar="NS",
        default=None,
        help="per-tenant p99 miss-latency SLO target in ns",
    )
    flags.add(parser, "--no-ledger", "--engine", "--check-every", *flags.ANOMALY)
    args = flags.parse(parser, argv)

    if args.open_loop is None and args.tenants is None:
        parser.error("--tenants is required (or use --open-loop TENANTS)")

    config = default_config(
        args.scale, platform=get_platform(args.platform), policy=args.policy
    )
    if args.open_loop is not None:
        return _serve_open_loop(args, config)
    specs = _parse_tenants(args.tenants)
    if args.slo_p50 is not None or args.slo_p99 is not None:
        from dataclasses import replace

        specs = [
            replace(spec, slo_p50_ns=args.slo_p50, slo_p99_ns=args.slo_p99)
            for spec in specs
        ]
    streams = build_tenants(
        specs,
        config,
        oversubscription=args.oversubscription,
        seed=args.seed,
    )
    governor = None
    if args.governor:
        governor = GovernorConfig(
            tokens_per_1k_accesses=args.governor_rate,
            burst=args.governor_burst,
            promotion_stall_ns=args.governor_stall_ns,
        )
    server = TenantServer(
        config,
        streams,
        discipline=args.discipline,
        quota=QuotaConfig(mode=args.quotas),
        tier1_policy=args.tier1_policy,
        tier2_policy=args.tier2_policy,
        governor=governor,
        engine=args.engine,
        epoch=args.epoch if args.epoch is not None else 1,
    )
    if args.check_every is not None:
        server.runtime.enable_periodic_checks(args.check_every)
    telemetry = None
    if args.trace_out is not None or args.metrics_out is not None or args.anomaly_scan:
        from repro.obs import Telemetry

        telemetry = server.attach_telemetry(
            Telemetry(window=args.anomaly_window if args.anomaly_scan else 10_000)
        )
    import time as _time

    wall_start = _time.perf_counter()
    outcome = server.run(solo_baselines=not args.no_solo)
    wall_s = _time.perf_counter() - wall_start
    if args.check_every is not None:
        # Post-run: the full audit plus tenant-slice conservation.
        from repro.check.identities import audit_split, ConformanceError

        violations = audit_split(server.runtime.stats, server.runtime.tenant_stats)
        if violations:
            raise ConformanceError(violations)
    print(outcome.to_table())
    shared_engine, shared_reason = server.engine_resolution()
    print(f"engine={shared_engine} (reason={shared_reason})")
    if server.solo_resolutions:
        solo_engine, solo_reason = server.solo_resolutions[
            min(server.solo_resolutions)
        ]
        print(f"solo baselines: engine={solo_engine} (reason={solo_reason})")

    if args.trace_out is not None:
        from repro.obs.export import write_chrome_trace

        count = write_chrome_trace(
            args.trace_out,
            {telemetry.name: telemetry.tracer},
            windows={telemetry.name: telemetry.windows()},
            metadata={"engine": shared_engine, "engine_reason": shared_reason},
        )
        print(f"wrote {count} trace events to {args.trace_out} (ui.perfetto.dev)")
    if args.metrics_out is not None:
        from repro.obs.export import write_prometheus

        write_prometheus(
            args.metrics_out,
            [telemetry.registry] + server.tenant_registries(),
            header=[f"engine={shared_engine} (reason={shared_reason})"],
        )
        print(f"wrote Prometheus snapshot to {args.metrics_out}")
    anomalies = []
    if args.anomaly_scan:
        anomalies = _scan_anomalies(args, telemetry, "serve")
    if not args.no_ledger:
        from repro.obs.ledger import record_run

        stats = server.runtime.stats
        slowdowns = outcome.slowdowns()
        solo_engines = sorted(
            {eng for eng, _ in server.solo_resolutions.values()}
        )
        record_run(
            "gmt-serve",
            wall_s=wall_s,
            engine=shared_engine,
            params={
                "engine_reason": shared_reason,
                **(
                    {"solo_engines": solo_engines} if solo_engines else {}
                ),
                "tenants": sorted(s.workload for s in specs),
                "discipline": args.discipline,
                "epoch": args.epoch if args.epoch is not None else 1,
                "quotas": args.quotas,
                "policy": args.policy,
                "tier1_policy": args.tier1_policy or "clock",
                "tier2_policy": args.tier2_policy or "default",
                "governor": bool(args.governor),
                "scale": args.scale,
                "seed": args.seed,
            },
            accesses_per_sec=(
                stats.coalesced_accesses / wall_s if wall_s > 0 else 0.0
            ),
            metrics={
                "makespan_ns": outcome.elapsed_ns,
                "t1_hit_rate": stats.t1_hit_rate,
                "migration_throttled": stats.migration_throttled,
                "tenants": len(outcome.tenants),
                "slo_violations": sum(
                    len(t.slo_violations) for t in outcome.tenants
                ),
                **({"max_slowdown": max(slowdowns)} if slowdowns else {}),
            },
            anomalies=len(anomalies),
        )
    return 0


def main_why(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-why`` — causal lifecycle diagnosis.

    Replays the workload with the flight recorder enabled (deterministic,
    so the answers are reproducible), then runs one query::

        gmt-why hotspot page 713         # page 713's full tier journey
        gmt-why hotspot miss 2197        # why did access 2197 miss?
        gmt-why hotspot top --k 5        # costliest mispredictions
        gmt-why hotspot residency        # per-tier residency distribution
        gmt-why hotspot outcomes         # predicted-vs-actual tally
        gmt-why hotspot anomalies        # thrash/bypass/latency windows

    ``--from FILE`` answers from a previously exported JSONL (see
    ``gmt-sim --lifecycle-out`` / ``--record-out``) instead of replaying.
    """
    parser = _common_parser(
        "gmt-why", "Causal queries over the page-lifecycle flight recorder"
    )
    parser.add_argument(
        "query",
        choices=["page", "miss", "top", "residency", "outcomes", "anomalies"],
        help="what to explain",
    )
    parser.add_argument(
        "arg",
        nargs="?",
        type=int,
        default=None,
        help="page id (for 'page') or access index (for 'miss')",
    )
    from repro.core.config import POLICY_NAMES

    parser.add_argument(
        "--runtime",
        default="reuse",
        # GMT policy variants only: the intersection of the runtime
        # registry and the placement-policy registry (baselines such as
        # bam/hmm/dragon do not drive the 3-tier lifecycle recorder).
        choices=[k for k in RUNTIME_KINDS if k in POLICY_NAMES],
        help="GMT policy variant to replay (default: reuse)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=200_000,
        help="flight-recorder ring capacity (default 200000)",
    )
    parser.add_argument(
        "--lifecycle-sample-rate",
        type=float,
        metavar="P",
        default=None,
        help="record a deterministic hash-sampled fraction P of pages "
        "(0 < P <= 1) instead of every page; sampled pages keep their "
        "complete journeys, and the replay stays on the vector engine "
        "(queries about unsampled pages come back empty)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=2_000,
        help="snapshot window (accesses) for the anomaly scan (default 2000)",
    )
    parser.add_argument(
        "--k", type=int, default=10, help="rows for the 'top' query (default 10)"
    )
    parser.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE",
        default=None,
        help="answer from an exported lifecycle JSONL instead of replaying",
    )
    parser.add_argument(
        "--record-out",
        metavar="PATH",
        default=None,
        help="also export the recorded lifecycle events to PATH as JSONL",
    )
    args = parser.parse_args(argv)

    if args.query in ("page", "miss") and args.arg is None:
        parser.error(f"'{args.query}' needs an argument (gmt-why W {args.query} <n>)")
    if args.from_file is not None and args.query == "anomalies":
        parser.error("'anomalies' scans snapshot windows and needs a live replay")

    from repro.obs import LifecycleQuery
    from repro.obs.lifecycle import load_lifecycle_jsonl, write_lifecycle_jsonl

    windows: list[dict] = []
    page_size = default_config(args.scale).page_size
    if args.from_file is not None:
        events = load_lifecycle_jsonl(args.from_file)
    else:
        from repro.obs import Telemetry

        config = default_config(args.scale)
        workload = get_workload(
            args.workload,
            config,
            oversubscription=args.oversubscription,
            seed=args.seed,
        )
        runtime = build_runtime(args.runtime, config)
        telemetry = Telemetry(
            window=args.window,
            lifecycle=args.capacity,
            lifecycle_sample_rate=args.lifecycle_sample_rate,
        )
        runtime.attach_telemetry(telemetry)
        runtime.run(workload)
        print("engine={} (reason={})".format(*runtime.engine_resolution()))
        events = telemetry.lifecycle.events()
        windows = telemetry.windows()
        if telemetry.lifecycle.dropped:
            print(
                f"note: ring dropped {telemetry.lifecycle.dropped} oldest events "
                f"(capacity {args.capacity}; raise --capacity for full history)"
            )
        if args.record_out is not None:
            count = write_lifecycle_jsonl(args.record_out, events)
            print(f"wrote {count} lifecycle events to {args.record_out}")

    query = LifecycleQuery(events)
    if args.query == "page":
        print(query.explain_page(args.arg))
    elif args.query == "miss":
        answer = query.explain_miss(args.arg)
        if answer is None:
            nearest = query.nearest_fill(args.arg)
            hint = (
                f"; nearest recorded fill is at access {nearest.access} (page {nearest.page})"
                if nearest is not None
                else ""
            )
            print(f"access {args.arg}: no recorded Tier-1 fill — it hit, or rotated out of the ring{hint}")
        else:
            print(answer)
    elif args.query == "top":
        costs = query.top_misprediction_costs(args.k)
        if not costs:
            print("no misprediction charges on record (no bypass-then-refault page)")
        else:
            rows = [
                [
                    c.page,
                    c.refaults,
                    c.writebacks,
                    format_bytes(c.ssd_bytes(page_size)),
                    ",".join(f"{k}:{v}" for k, v in sorted(c.predicted.items())),
                ]
                for c in costs
            ]
            print(
                render_table(
                    ["page", "refaults", "writebacks", "SSD I/O", "predicted"],
                    rows,
                    title=f"top {len(rows)} pages by misprediction-charged SSD I/O",
                )
            )
    elif args.query == "residency":
        rows = [
            [tier, s["count"], f"{s['mean']:.1f}", f"{s['p50']:.0f}", f"{s['max']:.0f}"]
            for tier, s in sorted(query.residency_summary().items())
        ]
        print(
            render_table(
                ["tier", "stays", "mean", "p50", "max"],
                rows,
                title="per-tier residency (completed stays, coalesced-access units)",
            )
        )
    elif args.query == "outcomes":
        tally = query.prediction_outcomes()
        if not tally:
            print("no RESOLVE events on record (policy without prediction resolution?)")
        else:
            total = sum(tally.values())
            rows = [
                [cause, count, f"{count / total:.1%}"]
                for cause, count in sorted(tally.items(), key=lambda kv: -kv[1])
            ]
            print(render_table(["outcome", "count", "share"], rows,
                               title="placement-prediction outcomes (RESOLVE events)"))
    elif args.query == "anomalies":
        from repro.obs import AnomalyDetector

        anomalies = AnomalyDetector().scan(windows)
        if not anomalies:
            print(f"no anomalies over {len(windows)} windows of {args.window} accesses")
        else:
            for anomaly in anomalies:
                print(
                    f"[window {anomaly.window} @access {anomaly.position}] "
                    f"{anomaly.rule}: {anomaly.message}"
                )
    return 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    sys.exit(main_sim())
