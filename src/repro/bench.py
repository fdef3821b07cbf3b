"""``gmt-bench`` — record & gate performance baselines.

Replays a small fixed matrix of (workload, runtime) cells and captures
two families of numbers per cell:

- **simulated metrics** — modelled elapsed ns, SSD traffic, hit/miss
  counters.  These are fully deterministic for a given (scale, seed), so
  the gate compares them with a *strict* tolerance: any drift means the
  simulator's behaviour changed.
- **wall-clock** — host seconds spent replaying the cell.  Noisy by
  nature (CI machines, thermal state), so it is compared with a
  *generous* multiplicative tolerance and only catches order-of-magnitude
  slowdowns (an accidental O(n^2) in the hot loop, a debug recorder left
  enabled by default).

Workflow::

    gmt-bench --out benchmarks/BENCH_baseline.json        # record
    gmt-bench --check --baseline benchmarks/BENCH_baseline.json

``--check`` exits non-zero when any cell regresses, printing one line
per violated budget.  CI runs the check on every push (the ``bench-gate``
job); refresh the committed baseline in the same PR as an intentional
performance or behaviour change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: Module-level clock hook so tests can inject artificial slowdown
#: (monkeypatching ``time.perf_counter`` directly would skew pytest
#: itself; patching ``repro.bench._clock`` only affects the bench).
_clock = time.perf_counter

#: The fixed cell matrix: small enough for CI, wide enough to cover the
#: BaM baseline and the full reuse pipeline on two access patterns.
DEFAULT_CELLS: tuple[tuple[str, str], ...] = (
    ("hotspot", "bam"),
    ("hotspot", "reuse"),
    ("bfs", "bam"),
    ("bfs", "reuse"),
)


def _zoo_cells() -> tuple[tuple[str, str, str], ...]:
    from repro.policyzoo.registry import ZOO_POLICY_NAMES

    return tuple(("hotspot", "reuse", pol) for pol in ZOO_POLICY_NAMES)


#: Informational cells: the reuse pipeline with each policy-zoo eviction
#: policy substituted at both tiers.  Recorded in the baseline (cell id
#: ``hotspot/reuse+<policy>``) so the zoo's behaviour is visible in the
#: bench table and its *presence* is gated, but the metric budgets are
#: not: zoo cells carry ``informational: true`` and may drift as
#: policies are tuned.
ZOO_CELLS: tuple[tuple[str, str, str], ...] = _zoo_cells()

#: Batched-vs-per-warp throughput cells: each spec is replayed twice,
#: per warp (``<id>@scalar``, the reference
#: :meth:`GMTRuntime.replay_per_warp`) and through the batched ``run``
#: (``<id>@vector``), and recorded with
#: ``informational: true`` — presence is gated (the cells must still
#: run), the metrics are not (wall-clock throughput is
#: machine-dependent).  ``kvhot`` is the hit-dominated regime batching
#: exists for: a zipf-served KV store whose hot set is Tier-1 resident,
#: so the stream is long runs of Tier-1 hits.  ``hotspot`` is the
#: opposite (a thrashing, miss-dominated stream) and documents the batch
#: loop's bounded worst case.
ENGINE_CELLS: tuple[dict, ...] = (
    {"id": "hotspot/reuse", "app": "hotspot", "kind": "reuse"},
    {
        "id": "kvhot/reuse",
        "app": "keyvalue",
        "kind": "reuse",
        "oversubscription": 0.15,
        "workload_kwargs": {"lookups": 200_000},
    },
    # The same hit-dominated regime with windowed telemetry (snapshots,
    # latency digest, counter tracks) attached: run() keeps its bulk hit
    # path and only stops a batch before each window cut, so
    # instrumented runs must stay an order of magnitude faster than the
    # per-warp reference (--assert-vector-telemetry-speedup gates it in
    # CI).  The longer trace amortises the GMT-Reuse sampling warmup,
    # which replays per access on both sides.
    {
        "id": "kvhot/reuse+obs",
        "app": "keyvalue",
        "kind": "reuse",
        "oversubscription": 0.15,
        "workload_kwargs": {"lookups": 600_000},
        "telemetry": True,
    },
)

#: Open-loop serving cell: a 1k-tenant zipf fleet under Poisson arrivals
#: with admission control — the ``capacity`` experiment's knee point,
#: recorded as one informational cell (``serve/openloop-1k``) so the
#: baseline documents service-scale throughput and shed behaviour.
#: Presence is gated, the metrics are not (wall-clock dependent, and the
#: admission trajectory may shift as pressure thresholds are tuned).
OPENLOOP_CELL: dict = {
    "id": "serve/openloop-1k",
    "tenants": 1024,
    "requests": 4096,
    "arrival_rate_per_s": 65536.0,
    "max_backlog": 256,
}

#: Deterministic per-cell metrics captured from the replay.  Checked
#: with the strict tolerance.
SIM_METRICS = (
    "elapsed_ns",
    "ssd_io_bytes",
    "t1_hits",
    "t1_misses",
    "ssd_page_reads",
    "ssd_page_writes",
)

BASELINE_VERSION = 2


def run_cell(
    app: str,
    kind: str,
    scale: int,
    seed: int,
    tier1_policy: str | None = None,
    tier2_policy: str | None = None,
    oversubscription: float | None = None,
    workload_kwargs: dict | None = None,
    telemetry: bool = False,
) -> dict:
    """Replay one cell through ``runtime.run`` and return its metric
    record (wall_s last).

    ``tier1_policy`` / ``tier2_policy`` substitute a policy-zoo eviction
    policy at the respective tier (see ``EVICTION_POLICY_NAMES``).  The
    workload's flat trace is materialized *before* the clock starts, so
    ``accesses_per_sec`` measures replay throughput, not trace
    generation.  With ``telemetry`` a windowed
    :class:`~repro.obs.Telemetry` (snapshots + latency digest) is
    attached before the clock starts, so the cell measures
    *instrumented* replay throughput.

    Every replay ends with the full conformance audit
    (:func:`repro.check.identities.assert_conformant`): a baseline
    recorded from a run that violates the stats identities would gate
    future runs against garbage, so the bench refuses to produce one.
    """
    from repro.core.vector import materialize_trace

    runtime, workload = _cell(
        app, kind, scale, seed, tier1_policy=tier1_policy,
        tier2_policy=tier2_policy, oversubscription=oversubscription,
        workload_kwargs=workload_kwargs, telemetry=telemetry,
    )
    materialize_trace(workload)
    return _timed_replay(runtime, runtime.run, workload)


def _cell(app, kind, scale, seed, *, tier1_policy=None, tier2_policy=None,
          oversubscription=None, workload_kwargs=None, telemetry=False):
    """A cell's runtime (telemetry attached when asked) and workload."""
    from repro.experiments.harness import build_runtime, default_config, get_workload

    config = default_config(scale)
    if tier1_policy is not None or tier2_policy is not None:
        from dataclasses import replace

        config = replace(
            config,
            tier1_eviction=tier1_policy or config.tier1_eviction,
            tier2_eviction=tier2_policy or config.tier2_eviction,
        )
    if oversubscription is None:
        workload = get_workload(app, config, seed=seed, **(workload_kwargs or {}))
    else:
        workload = get_workload(
            app, config, oversubscription, seed=seed, **(workload_kwargs or {})
        )
    runtime = build_runtime(kind, config)
    if telemetry:
        from repro.obs import Telemetry

        runtime.attach_telemetry(Telemetry())
    return runtime, workload


def _timed_replay(runtime, replay, workload) -> dict:
    """Time ``replay(workload)``, audit ``runtime``, and return the
    cell's metrics (wall_s and accesses_per_sec last)."""
    from repro.check.identities import assert_conformant

    start = _clock()
    result = replay(workload)
    wall_s = _clock() - start
    assert_conformant(runtime)
    accesses = result.stats.coalesced_accesses
    return {
        "elapsed_ns": float(result.elapsed_ns),
        "ssd_io_bytes": float(result.ssd_io_bytes),
        "t1_hits": float(result.stats.t1_hits),
        "t1_misses": float(result.stats.t1_misses),
        "ssd_page_reads": float(result.stats.ssd_page_reads),
        "ssd_page_writes": float(result.stats.ssd_page_writes),
        "wall_s": wall_s,
        # Host-side replay throughput: noisy like wall_s, recorded for
        # the run ledger's trend trajectory (never strictly gated).
        "accesses_per_sec": accesses / wall_s if wall_s > 0 else 0.0,
    }


def run_openloop_cell(scale: int, seed: int, spec: dict) -> dict:
    """Serve one open-loop fleet cell and return its metric record.

    Drives :class:`~repro.serve.openloop.OpenLoopServer` over a
    :class:`~repro.serve.stream.TenantPopulation` of ``spec["tenants"]``
    synthetic tenants and reports the serving-side metrics (arrivals,
    shed, request p99) alongside the usual replay counters.  Audited
    like every other cell — ``admission-conservation`` included.
    """
    from repro.check.identities import assert_conformant
    from repro.experiments.harness import default_config
    from repro.serve import OpenLoopConfig, OpenLoopServer, TenantPopulation

    config = default_config(scale)
    population = TenantPopulation(spec["tenants"], seed=seed)
    loop = OpenLoopConfig(
        requests=spec["requests"],
        arrival_rate_per_s=spec["arrival_rate_per_s"],
        seed=seed,
        max_backlog=spec.get("max_backlog"),
    )
    server = OpenLoopServer(config, population, loop)
    start = _clock()
    outcome = server.run()
    wall_s = _clock() - start
    assert_conformant(server.runtime)
    stats = server.runtime.stats
    accesses = stats.coalesced_accesses
    return {
        "elapsed_ns": float(outcome.makespan_ns),
        "ssd_io_bytes": float(stats.io_bytes(config.page_size)),
        "t1_hits": float(stats.t1_hits),
        "t1_misses": float(stats.t1_misses),
        "ssd_page_reads": float(stats.ssd_page_reads),
        "ssd_page_writes": float(stats.ssd_page_writes),
        "requests_arrived": float(outcome.arrived),
        "requests_shed": float(outcome.shed),
        "shed_rate": outcome.shed_rate,
        **({"req_p99_ns": outcome.p99_ns} if outcome.p99_ns is not None else {}),
        "wall_s": wall_s,
        "accesses_per_sec": accesses / wall_s if wall_s > 0 else 0.0,
    }


def run_bench(
    cells: tuple[tuple[str, str], ...] = DEFAULT_CELLS,
    scale: int = 4096,
    seed: int = 0,
    zoo: tuple[tuple[str, str, str], ...] = (),
    engine_cells: tuple[dict, ...] = (),
    openloop_cells: tuple[dict, ...] = (),
) -> dict:
    """Replay every cell; returns the baseline document (JSON-ready).

    ``zoo`` entries are ``(app, kind, policy)`` triples replayed with the
    policy substituted at both tiers and recorded as informational cells
    (the CLI passes :data:`ZOO_CELLS`).

    ``engine_cells`` specs (the CLI passes :data:`ENGINE_CELLS`) are each
    replayed per warp and through ``run``, and recorded as
    ``<id>@scalar`` / ``<id>@vector`` informational cells, so the
    baseline documents both replays' ``accesses_per_sec`` side by side.

    ``openloop_cells`` specs (the CLI passes ``(OPENLOOP_CELL,)``) are
    open-loop serving runs recorded as informational cells.
    """
    doc = {
        "version": BASELINE_VERSION,
        "scale": scale,
        "seed": seed,
        "cells": {},
    }
    for app, kind in cells:
        doc["cells"][f"{app}/{kind}"] = run_cell(app, kind, scale, seed)
    for app, kind, pol in zoo:
        record = run_cell(app, kind, scale, seed, tier1_policy=pol, tier2_policy=pol)
        record["informational"] = True
        doc["cells"][f"{app}/{kind}+{pol}"] = record
    for spec in engine_cells:
        app, kind = spec["app"], spec["kind"]
        setup = {
            "oversubscription": spec.get("oversubscription"),
            "workload_kwargs": spec.get("workload_kwargs"),
            "telemetry": spec.get("telemetry", False),
        }
        # The per-warp reference generates its warps inside the clock,
        # as a per-warp replay consumes them.
        runtime, workload = _cell(app, kind, scale, seed, **setup)
        reference = _timed_replay(runtime, runtime.replay_per_warp, workload)
        records = {
            "scalar": reference,
            "vector": run_cell(app, kind, scale, seed, **setup),
        }
        for eng, record in records.items():
            record["informational"] = True
            doc["cells"][f"{spec['id']}@{eng}"] = record
    for spec in openloop_cells:
        record = run_openloop_cell(scale, seed, spec)
        record["informational"] = True
        doc["cells"][spec["id"]] = record
    return doc


def compare(
    baseline: dict,
    current: dict,
    tolerance: float = 0.01,
    wall_tolerance: float = 5.0,
) -> list[str]:
    """Budgets violated by ``current`` vs ``baseline`` (empty = pass).

    Simulated metrics may drift by at most ``tolerance`` (relative, both
    directions — a silent *improvement* in a deterministic metric is
    still an unexplained behaviour change).  ``wall_s`` may grow by at
    most a factor of ``1 + wall_tolerance`` and never fails on getting
    faster.

    Cells whose baseline record carries ``informational: true`` (the
    policy-zoo cells) are only checked for *presence*: they must still
    run, but their metrics are not budgets.
    """
    problems: list[str] = []
    if baseline.get("scale") != current.get("scale") or baseline.get(
        "seed"
    ) != current.get("seed"):
        problems.append(
            "baseline geometry mismatch: recorded at "
            f"scale={baseline.get('scale')} seed={baseline.get('seed')}, "
            f"checking at scale={current.get('scale')} seed={current.get('seed')}"
        )
        return problems
    for cell, base in baseline.get("cells", {}).items():
        cur = current.get("cells", {}).get(cell)
        if cur is None:
            problems.append(f"{cell}: missing from current run")
            continue
        if base.get("informational"):
            continue
        for metric in SIM_METRICS:
            want, got = base.get(metric), cur.get(metric)
            if want is None or got is None:
                continue
            limit = tolerance * max(abs(want), 1.0)
            if abs(got - want) > limit:
                problems.append(
                    f"{cell}: {metric} drifted {want:g} -> {got:g} "
                    f"(tolerance {tolerance:.2%})"
                )
        want, got = base.get("wall_s"), cur.get("wall_s")
        if want is not None and got is not None:
            ceiling = want * (1.0 + wall_tolerance)
            if got > ceiling and got - want > 0.05:  # ignore micro-run jitter
                problems.append(
                    f"{cell}: wall_s regressed {want:.3f}s -> {got:.3f}s "
                    f"(budget {ceiling:.3f}s = baseline x{1.0 + wall_tolerance:g})"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-bench``."""
    from repro import flags

    parser = argparse.ArgumentParser(
        prog="gmt-bench",
        description="Record or check the perf-regression baseline",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the recorded baseline JSON to PATH",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against --baseline and exit 1 on regression",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default="benchmarks/BENCH_baseline.json",
        help="baseline file for --check (default: benchmarks/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="relative drift allowed on simulated metrics (default 0.01)",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=5.0,
        help="allowed wall-clock growth factor minus one (default 5.0 "
        "= fail beyond 6x the baseline)",
    )
    flags.add(parser, "--scale", "--seed")
    parser.add_argument(
        "--trend",
        action="store_true",
        help="analyse the run ledger instead of replaying: compare the "
        "latest runs against the rolling median and exit 1 on "
        "sustained drift",
    )
    parser.add_argument(
        "--trend-window",
        type=int,
        default=8,
        help="rolling-median baseline size for --trend (default 8)",
    )
    parser.add_argument(
        "--trend-threshold",
        type=float,
        default=0.25,
        help="relative deviation that counts as drift for --trend "
        "(default 0.25)",
    )
    flags.add(parser, "--no-ledger")
    parser.set_defaults(scale=4096)
    parser.add_argument(
        "--assert-vector-speedup",
        type=float,
        metavar="FACTOR",
        default=None,
        help="exit 1 unless the batched replay reaches FACTOR x the "
        "per-warp reference's accesses/sec on the kvhot hit-dominated "
        "cell (CI smoke: 5; the recorded baselines show 10x+)",
    )
    parser.add_argument(
        "--assert-vector-telemetry-speedup",
        type=float,
        metavar="FACTOR",
        default=None,
        help="exit 1 unless the batched replay reaches FACTOR x the "
        "per-warp reference's accesses/sec on the kvhot cell with "
        "windowed telemetry attached (CI smoke: 10)",
    )
    args = parser.parse_args(argv)

    if args.trend:
        from repro.obs.ledger import config_hash, format_trend, ledger_path, read_ledger

        params = {
            "cells": sorted(
                [f"{app}/{kind}" for app, kind in DEFAULT_CELLS]
                + [f"{app}/{kind}+{pol}" for app, kind, pol in ZOO_CELLS]
                + [
                    f"{spec['id']}@{eng}"
                    for spec in ENGINE_CELLS
                    for eng in ("scalar", "vector")
                ]
                + [OPENLOOP_CELL["id"]]
            ),
            "scale": args.scale,
            "seed": args.seed,
        }
        entries = read_ledger(tool="gmt-bench", config=config_hash(params))
        report, drifts = format_trend(
            entries,
            metrics=("wall_s", "accesses_per_sec", "elapsed_ns"),
            window=args.trend_window,
            threshold=args.trend_threshold,
        )
        print(report)
        if not entries:
            print(f"(ledger: {ledger_path()})")
            return 2
        if drifts:
            print(f"FAIL: {len(drifts)} metric(s) drifting on the ledger")
            return 1
        print("PASS: no sustained drift on the ledger")
        return 0

    if args.check:
        # Read the baseline before replaying: a bad path fails fast.
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            print(f"gmt-bench: baseline not found: {args.baseline}", file=sys.stderr)
            return 2

    doc = run_bench(
        scale=args.scale,
        seed=args.seed,
        zoo=ZOO_CELLS,
        engine_cells=ENGINE_CELLS,
        openloop_cells=(OPENLOOP_CELL,),
    )
    width = max(len(cell) for cell in doc["cells"])
    for cell, record in doc["cells"].items():
        tag = "  [informational]" if record.get("informational") else ""
        print(
            f"{cell:>{width}}: elapsed {record['elapsed_ns'] / 1e6:10.2f} ms (simulated), "
            f"wall {record['wall_s'] * 1e3:8.1f} ms, "
            f"{record['accesses_per_sec'] / 1e3:8.1f} kacc/s{tag}"
        )

    if args.assert_vector_speedup is not None:
        cells = doc["cells"]
        scalar_aps = cells["kvhot/reuse@scalar"]["accesses_per_sec"]
        vector_aps = cells["kvhot/reuse@vector"]["accesses_per_sec"]
        speedup = vector_aps / scalar_aps if scalar_aps > 0 else 0.0
        print(
            f"vector-vs-scalar on kvhot/reuse: {speedup:.1f}x "
            f"({vector_aps / 1e3:.0f} vs {scalar_aps / 1e3:.0f} kacc/s)"
        )
        if speedup < args.assert_vector_speedup:
            print(
                f"FAIL: vector speedup {speedup:.1f}x below required "
                f"{args.assert_vector_speedup:g}x"
            )
            return 1

    if args.assert_vector_telemetry_speedup is not None:
        cells = doc["cells"]
        scalar_aps = cells["kvhot/reuse+obs@scalar"]["accesses_per_sec"]
        vector_aps = cells["kvhot/reuse+obs@vector"]["accesses_per_sec"]
        speedup = vector_aps / scalar_aps if scalar_aps > 0 else 0.0
        print(
            f"vector-vs-scalar with telemetry on kvhot/reuse+obs: "
            f"{speedup:.1f}x ({vector_aps / 1e3:.0f} vs "
            f"{scalar_aps / 1e3:.0f} kacc/s)"
        )
        if speedup < args.assert_vector_telemetry_speedup:
            print(
                f"FAIL: instrumented vector speedup {speedup:.1f}x below "
                f"required {args.assert_vector_telemetry_speedup:g}x"
            )
            return 1

    if args.check:
        problems = compare(
            baseline,
            doc,
            tolerance=args.tolerance,
            wall_tolerance=args.wall_tolerance,
        )
        if problems:
            print(f"FAIL: {len(problems)} budget(s) violated vs {args.baseline}")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print(f"PASS: all cells within budget vs {args.baseline}")

    if args.out is not None:
        import os

        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote baseline to {args.out}")

    if not args.no_ledger:
        from repro.obs.ledger import record_run

        cells = doc["cells"]
        wall_s = sum(c["wall_s"] for c in cells.values())
        accesses = sum(c["accesses_per_sec"] * c["wall_s"] for c in cells.values())
        record_run(
            "gmt-bench",
            wall_s=wall_s,
            params={"cells": sorted(cells), "scale": args.scale, "seed": args.seed},
            accesses_per_sec=accesses / wall_s if wall_s > 0 else 0.0,
            metrics={
                "elapsed_ns": sum(c["elapsed_ns"] for c in cells.values()),
                "ssd_io_bytes": sum(c["ssd_io_bytes"] for c in cells.values()),
                "t1_misses": sum(c["t1_misses"] for c in cells.values()),
            },
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    sys.exit(main())
