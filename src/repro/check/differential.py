"""Differential conformance: one trace, every runtime, every identity.

:func:`run_conformance` replays one workload through the comparison
runtimes (GMT-Reuse/TierOrder/Random, BaM, HMM by default), audits each
against the identity catalogue (:mod:`repro.check.identities`), then runs
the cross-runtime and metamorphic checks:

- **cross-runtime-trace** — all runtimes must observe the identical
  coalesced access stream (policies decide placement, never the trace);
- **scalar-vs-vector** — every runtime kind's batched replay
  (``runtime.run``, which retires Tier-1 hit runs in batches) must be
  counter-identical byte for byte, including the modelled
  ``elapsed_ns``, to its per-warp reference
  (:meth:`~repro.core.runtime.GMTRuntime.replay_per_warp`);
- **telemetry-parity** — the same pair *with windowed telemetry and the
  full lifecycle recorder attached* must produce byte-equal
  windowed-snapshot streams, latency-digest buckets, Perfetto counter
  tracks, anomaly findings and lifecycle event streams (the batched
  replay stops each hit batch before a window cut, and this column
  checks that it does);
- **metamorphic-degenerate-bam** — GMT with ``tier2_frames=0`` and the
  tier-order policy must be counter-identical to the BaM baseline;
- **metamorphic-determinism** — a second replay from the same seed must
  reproduce the first byte for byte;
- **metamorphic-solo-serve** — serving a single tenant through
  :mod:`repro.serve` must reproduce the plain single-stream replay.

:data:`INJECTIONS` hosts seeded corruptions (a page resident in two
tiers, a drifted counter, a dropped writeback) used to prove the net
actually catches what it claims to — ``gmt-check --inject`` must exit
non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.baselines.bam import BamRuntime
from repro.core.config import PAPER_OVERSUBSCRIPTION, GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError
from repro.experiments.harness import (
    RUNTIME_KINDS,
    RUNTIME_LABELS,
    build_runtime,
    default_config,
    get_workload,
)
from repro.check.identities import (
    Violation,
    audit_runtime,
    audit_split,
    audit_stats,
)

#: The default differential matrix: the paper's three GMT policies plus
#: both orchestration baselines.
DEFAULT_RUNTIMES: tuple[str, ...] = ("bam", "tier-order", "random", "reuse", "hmm")


# ----------------------------------------------------------------------
# seeded corruptions (self-test: the net must catch these)
# ----------------------------------------------------------------------
def _inject_dup_resident(runtime: GMTRuntime) -> str:
    """Make one page resident in both tiers (migration-state corruption):
    a Tier-2 page takes a Tier-1 page's place in the Tier-1 structure."""
    t2_page = next(iter(runtime._t2_order.pages()), None)
    if t2_page is None:
        raise ConfigError(
            "dup-resident needs a Tier-2 resident page; run a 3-tier "
            "runtime (not bam) with enough trace to populate Tier-2"
        )
    t1_page = next(iter(runtime.t1_clock.pages()))
    runtime.t1_clock.remove(t1_page)
    runtime.t1_clock.insert(t2_page)
    return f"page {t2_page} now resident in Tier-1 and Tier-2"


def _inject_stats_drift(runtime: GMTRuntime) -> str:
    """Phantom hit: the kind of double-count a refactor introduces."""
    runtime.stats.t1_hits += 1
    return "t1_hits incremented without an access"


def _inject_lost_writeback(runtime: GMTRuntime) -> str:
    """Drop one writeback from the books (silent data-loss accounting)."""
    if runtime.stats.ssd_page_writes == 0:
        raise ConfigError(
            "lost-writeback needs at least one recorded writeback; use a "
            "trace with dirty evictions"
        )
    runtime.stats.ssd_page_writes -= 1
    return "one ssd_page_write erased"


def _inject_vector_desync(runtime: GMTRuntime) -> str:
    """Set the hit-map bit of a page that must miss (the exact failure
    mode a buggy map would produce: a miss retired as a hit).  The page
    is a pending prefetch when there is one, whose first demand touch
    must bill the prefetch path, else a Tier-2 resident."""
    from repro.mem.page import PageLocation

    states = list(runtime.page_table)
    target = next((s for s in states if s.prefetched), None)
    if target is None:
        target = next(
            (s for s in states if s.location is PageLocation.TIER2), None
        )
    if target is None:
        raise ConfigError(
            "vector-desync needs a Tier-2 resident or a pending prefetch; "
            "run a 3-tier runtime (not bam) or --prefetch-degree > 0"
        )
    runtime._hit_map.bits[target.page] = True
    kind = "pending prefetch" if target.prefetched else "Tier-2 page"
    return f"hit-map bit set for {kind} {target.page}"


def _inject_ghost_leak(runtime: GMTRuntime) -> str:
    """Overflow an S3-FIFO ghost queue past its bound (history-structure
    leak — the kind of bug an unbounded dict would hide forever)."""
    from repro.policyzoo.partition import PartitionedPolicy
    from repro.policyzoo.s3fifo import S3FifoReplacement

    structures = []
    for candidate in (runtime.t1_clock, runtime._t2_order):
        if isinstance(candidate, S3FifoReplacement):
            structures.append(candidate)
        elif isinstance(candidate, PartitionedPolicy):
            structures.extend(
                p for p in candidate.policies
                if isinstance(p, S3FifoReplacement)
            )
    if not structures:
        raise ConfigError(
            "ghost-leak needs an S3-FIFO eviction structure; run with "
            "--tier1-policy s3fifo (or --tier2-policy s3fifo)"
        )
    target = structures[0]
    # Stuff synthetic never-resident page ids straight into the ghost
    # dict, bypassing the bounded _remember_ghost path.
    base = 1 << 60
    overflow = target.ghost_bound + 2 - len(target._ghost)
    for i in range(max(overflow, 1)):
        target._ghost[base + i] = None
    return (
        f"ghost queue stuffed to {len(target._ghost)} entries "
        f"(bound {target.ghost_bound})"
    )


def _inject_window_desync(telemetry) -> str:
    """Shift the batched replay's windowed-snapshot baseline (the exact
    corruption a buggy batch-splitting path would produce: batches
    retired across a window boundary without cutting the snapshot).

    Unlike the other injections this perturbs *telemetry* rather than a
    runtime, so :func:`run_conformance` applies it inside the
    telemetry-parity check — on the batched side only, between attach
    and replay — instead of after a replay."""
    snap = telemetry.snapshotter
    shift = max(1, snap.interval // 4)
    snap.rebaseline(snap._last_position + shift)
    return f"batched replay's snapshot baseline shifted by {shift} accesses"


INJECTIONS = {
    "dup-resident": _inject_dup_resident,
    "stats-drift": _inject_stats_drift,
    "lost-writeback": _inject_lost_writeback,
    "ghost-leak": _inject_ghost_leak,
    "vector-desync": _inject_vector_desync,
    "window-desync": _inject_window_desync,
}


# ----------------------------------------------------------------------
# report containers
# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """One runtime's replay and audit outcome."""

    kind: str
    label: str
    elapsed_ns: float
    stats: dict
    violations: list[Violation] = field(default_factory=list)


@dataclass
class CheckReport:
    """Everything one :func:`run_conformance` invocation established."""

    app: str
    scale: int
    seed: int
    runs: list[RunReport] = field(default_factory=list)
    #: (context, violation): context is a runtime label or check name.
    violations: list[tuple[str, Violation]] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    injected: str | None = None
    #: Eviction-policy substitution under test (None = the defaults).
    tier1_policy: str | None = None
    tier2_policy: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, context: str, violations) -> None:
        for violation in violations:
            self.violations.append((context, violation))

    def summary_lines(self) -> list[str]:
        lines = [
            f"gmt-check {self.app} (scale {self.scale}, seed {self.seed}): "
            f"{len(self.runs)} runtime(s), {len(self.checks_run)} check "
            f"group(s)"
            + (
                f", eviction: t1={self.tier1_policy or 'clock'}"
                f"/t2={self.tier2_policy or 'default'}"
                if (self.tier1_policy or self.tier2_policy)
                else ""
            )
            + (f", injected corruption: {self.injected}" if self.injected else "")
        ]
        for run in self.runs:
            status = "FAIL" if run.violations else "ok"
            lines.append(
                f"  [{status}] {run.label}: "
                f"{run.stats['coalesced_accesses']:.0f} accesses, "
                f"{run.stats['t1_misses']:.0f} misses, "
                f"elapsed {run.elapsed_ns / 1e6:.2f} ms"
            )
        if self.violations:
            lines.append(f"{len(self.violations)} violation(s):")
            lines.extend(f"  - [{ctx}] {v}" for ctx, v in self.violations)
        else:
            lines.append("all identities hold")
        return lines


# ----------------------------------------------------------------------
# the differential harness
# ----------------------------------------------------------------------
def _audited_replay(kind: str, config: GMTConfig, workload, check_every):
    runtime = build_runtime(kind, config)
    if check_every is not None:
        runtime.enable_periodic_checks(check_every)
    result = runtime.run(workload)
    return runtime, result


def run_conformance(
    app: str,
    scale: int,
    oversubscription: float = PAPER_OVERSUBSCRIPTION,
    seed: int = 0,
    runtimes: tuple[str, ...] = DEFAULT_RUNTIMES,
    check_every: int | None = None,
    prefetch_degree: int = 0,
    time_model: str = "bottleneck",
    metamorphic: bool = True,
    serve: bool = True,
    inject: str | None = None,
    tier1_policy: str | None = None,
    tier2_policy: str | None = None,
    engines: bool = True,
    telemetry: bool = True,
    telemetry_window: int = 1_997,
) -> CheckReport:
    """Replay ``app`` through ``runtimes`` and audit everything.

    Args:
        app: Table 2 workload name.
        scale: byte-scale divisor (trace and geometry size).
        oversubscription: working set over Tier-1+Tier-2 capacity.
        seed: trace RNG seed.
        runtimes: runtime kinds to replay (see ``RUNTIME_KINDS``).
        check_every: also run the audit *during* each replay, every this
            many coalesced accesses (None = post-run only).
        prefetch_degree: sequential prefetch window — non-zero exercises
            the prefetch/eviction accounting paths.
        time_model: "bottleneck" or "queueing"; the queueing model adds
            the link-conservation identities to the audit.
        metamorphic: run the degenerate-BaM and determinism checks.
        serve: run the 1-tenant-serve-equals-solo check (plus the
            tenant-slice conservation audit).
        inject: name from :data:`INJECTIONS` — corrupt the *first listed
            3-tier runtime* after its replay and before its audit, to
            prove detection end-to-end.
        tier1_policy / tier2_policy: substitute a :mod:`repro.policyzoo`
            eviction policy at the given tier for *every* runtime in the
            matrix (None keeps the defaults).  All identities — and the
            metamorphic checks, including degenerate-BaM — must hold for
            every zoo member.
        engines: run the ``scalar-vs-vector`` differential — every
            runtime kind's audited ``run`` must be counter-identical to
            its per-warp reference replay, byte for byte, including the
            modelled ``elapsed_ns``.
        telemetry: run the ``telemetry-parity`` differential — the same
            pair with windowed telemetry and the full lifecycle recorder
            attached must produce byte-equal window streams,
            latency-digest buckets, counter tracks, anomaly findings and
            lifecycle events.  The ``window-desync`` injection perturbs
            the batched side of this check and must be caught.
        telemetry_window: snapshot interval for the telemetry-parity
            replays (a prime by default, so hit batches straddle window
            boundaries rather than aligning with them).

    Periodic checking is disabled for the metamorphic re-runs (the first
    pass already audited the trace; the re-runs only compare outcomes).
    """
    for kind in runtimes:
        if kind not in RUNTIME_KINDS:
            raise ConfigError(
                f"unknown runtime kind {kind!r}; expected one of {RUNTIME_KINDS}"
            )
    if inject is not None and inject not in INJECTIONS:
        raise ConfigError(
            f"unknown injection {inject!r}; expected one of "
            f"{tuple(INJECTIONS)}"
        )

    config = default_config(
        scale, prefetch_degree=prefetch_degree, time_model=time_model
    )
    if tier1_policy is not None:
        config = replace(config, tier1_eviction=tier1_policy)
    if tier2_policy is not None:
        config = replace(config, tier2_eviction=tier2_policy)
    workload = get_workload(app, config, oversubscription, seed=seed)
    if prefetch_degree > 0:
        # The satellite fix under test: the prefetcher must know where
        # the workload's address space ends.
        config = replace(config, footprint_pages=workload.footprint_pages)

    report = CheckReport(
        app=app, scale=scale, seed=seed,
        tier1_policy=tier1_policy, tier2_policy=tier2_policy,
    )
    inject_target = None
    desync_target = None
    if inject == "window-desync":
        # Telemetry injection: applied inside the telemetry-parity check
        # (batched side, between attach and replay), not after a replay.
        if not telemetry:
            raise ConfigError(
                "window-desync perturbs the telemetry-parity check; "
                "don't disable it"
            )
        desync_target = runtimes[0]
    elif inject is not None:
        three_tier = [k for k in runtimes if k != "bam"]
        if not three_tier and inject == "dup-resident":
            raise ConfigError("dup-resident needs a 3-tier runtime in --runtimes")
        inject_target = (three_tier or list(runtimes))[0]

    report.checks_run.append("per-runtime-audit")
    results = {}
    for kind in runtimes:
        runtime, result = _audited_replay(kind, config, workload, check_every)
        if kind == inject_target:
            report.injected = f"{inject} into {RUNTIME_LABELS[kind]}: " + (
                INJECTIONS[inject](runtime)
            )
        violations = audit_runtime(runtime)
        run = RunReport(
            kind=kind,
            label=RUNTIME_LABELS[kind],
            elapsed_ns=result.elapsed_ns,
            stats=result.stats.as_dict(),
            violations=violations,
        )
        report.runs.append(run)
        report.add(run.label, violations)
        results[kind] = result

    # -- cross-runtime: the trace is policy-independent -----------------
    report.checks_run.append("cross-runtime-trace")
    reference_kind = runtimes[0]
    reference = results[reference_kind]
    for kind in runtimes[1:]:
        for metric in ("warp_instructions", "coalesced_accesses"):
            got = getattr(results[kind].stats, metric)
            want = getattr(reference.stats, metric)
            if got != want:
                report.add(
                    "cross-runtime",
                    [
                        Violation(
                            "cross-runtime-trace",
                            f"{RUNTIME_LABELS[kind]} saw {metric}={got}, "
                            f"{RUNTIME_LABELS[reference_kind]} saw {want}",
                        )
                    ],
                )

    # -- scalar vs vector: run() must match the per-warp reference -------
    if engines:
        report.checks_run.append("scalar-vs-vector")
        for kind in runtimes:
            left = build_runtime(kind, config).replay_per_warp(workload)
            right = results[kind]
            report.add(
                "scalar-vs-vector",
                _diff_counters(
                    "scalar-vs-vector",
                    left,
                    right,
                    f"{RUNTIME_LABELS[kind]}@scalar",
                    f"{RUNTIME_LABELS[kind]}@vector",
                ),
            )

    # -- telemetry parity: instrumented replays must agree byte for byte -
    if telemetry:
        report.checks_run.append("telemetry-parity")
        for kind in runtimes:
            violations, note = check_telemetry_parity(
                kind,
                config,
                workload,
                window=telemetry_window,
                corrupt=_inject_window_desync if kind == desync_target else None,
            )
            report.add("telemetry-parity", violations)
            if note is not None:
                report.injected = (
                    f"window-desync into {RUNTIME_LABELS[kind]}@vector: {note}"
                )

    if metamorphic:
        report.checks_run.append("metamorphic-degenerate-bam")
        report.add("metamorphic", check_degenerate_bam(config, workload))
        report.checks_run.append("metamorphic-determinism")
        determinism_kind = "reuse" if "reuse" in runtimes else runtimes[0]
        report.add(
            "metamorphic", check_determinism(determinism_kind, config, workload)
        )
    if serve:
        report.checks_run.append("metamorphic-solo-serve")
        report.add("serve", check_solo_serve(app, config, oversubscription, seed))
    return report


# ----------------------------------------------------------------------
# metamorphic checks (importable individually by tests)
# ----------------------------------------------------------------------
def _diff_counters(name: str, left, right, left_label: str, right_label: str):
    """Counter-level equality between two RunResults."""
    violations = []
    for counter in type(left.stats).counter_names():
        lhs = getattr(left.stats, counter)
        rhs = getattr(right.stats, counter)
        if lhs != rhs:
            violations.append(
                Violation(
                    name,
                    f"{counter}: {left_label}={lhs} vs {right_label}={rhs}",
                )
            )
    if left.elapsed_ns != right.elapsed_ns:
        violations.append(
            Violation(
                name,
                f"elapsed_ns: {left_label}={left.elapsed_ns!r} vs "
                f"{right_label}={right.elapsed_ns!r}",
            )
        )
    return violations


def _first_divergence(left: list, right: list) -> str:
    """Human-oriented pointer at the first differing element."""
    if len(left) != len(right):
        return f"{len(left)} vs {len(right)} entries"
    for i, (lhs, rhs) in enumerate(zip(left, right)):
        if lhs != rhs:
            if isinstance(lhs, dict) and isinstance(rhs, dict):
                keys = sorted(
                    k
                    for k in set(lhs) | set(rhs)
                    if lhs.get(k) != rhs.get(k)
                )
                return f"entry {i} differs in {', '.join(map(str, keys))}"
            return f"entry {i}: {lhs!r} vs {rhs!r}"
    return "identical"  # pragma: no cover - callers check inequality first


def check_telemetry_parity(
    kind: str,
    config: GMTConfig,
    workload,
    window: int = 1_997,
    corrupt=None,
) -> tuple[list[Violation], str | None]:
    """Per-warp reference and batched replay, instrumented: every
    telemetry surface must agree.

    Replays ``kind`` per warp (``@scalar``) and through ``run``
    (``@vector``) with a :class:`~repro.obs.Telemetry` attached
    (snapshot interval ``window``, unbounded full lifecycle recorder)
    and demands byte-equality of the windowed-snapshot stream, the
    latency-digest buckets, the Perfetto counter tracks derived from the
    windows, the anomaly-scan findings, the lifecycle event stream, and
    — as in the plain differential — every stats counter plus the
    modelled ``elapsed_ns``.

    ``corrupt`` (the ``window-desync`` injection) is applied to the
    batched side's telemetry between attach and replay; returns the
    injection's description as the second element (None when not
    injected).
    """
    from repro.obs import AnomalyDetector, Telemetry
    from repro.obs.export import counter_track_events

    label = RUNTIME_LABELS[kind]
    note = None
    runs: dict[str, tuple] = {}
    for eng in ("scalar", "vector"):
        runtime = build_runtime(kind, config)
        telemetry = Telemetry(window=window)
        telemetry.enable_lifecycle(capacity=None)
        runtime.attach_telemetry(telemetry)
        if eng == "scalar":
            result = runtime.replay_per_warp(workload)
        else:
            if corrupt is not None:
                note = corrupt(telemetry)
            result = runtime.run(workload)
        runs[eng] = (result, telemetry)
    violations = _diff_counters(
        "telemetry-parity",
        runs["scalar"][0],
        runs["vector"][0],
        f"{label}@scalar",
        f"{label}@vector",
    )
    ts, tv = runs["scalar"][1], runs["vector"][1]
    ws, wv = ts.windows(), tv.windows()
    detector = AnomalyDetector()
    for surface, left, right in (
        ("window stream", ws, wv),
        ("latency-digest buckets", [ts.latency_digest.to_dict()],
         [tv.latency_digest.to_dict()]),
        ("counter tracks", counter_track_events(0, ws),
         counter_track_events(0, wv)),
        ("anomaly findings", [str(a) for a in detector.scan(ws)],
         [str(a) for a in detector.scan(wv)]),
        ("lifecycle events", [e.to_dict() for e in ts.lifecycle.events()],
         [e.to_dict() for e in tv.lifecycle.events()]),
    ):
        if left != right:
            violations.append(
                Violation(
                    "telemetry-parity",
                    f"{label}: {surface} diverges between the replays "
                    f"({_first_divergence(left, right)})",
                )
            )
    return violations, note


def check_degenerate_bam(config: GMTConfig, workload) -> list[Violation]:
    """GMT(tier2_frames=0, tier-order) must equal BaM on the same trace."""
    degenerate = GMTRuntime(
        replace(config, tier2_frames=0, policy="tier-order")
    ).run(workload)
    bam = BamRuntime(config).run(workload)
    return _diff_counters(
        "metamorphic-degenerate-bam", degenerate, bam, "GMT(t2=0)", "BaM"
    )


def check_determinism(kind: str, config: GMTConfig, workload) -> list[Violation]:
    """Two fresh replays of the same (config, workload) must be identical."""
    first = build_runtime(kind, config).run(workload)
    second = build_runtime(kind, config).run(workload)
    return _diff_counters(
        "metamorphic-determinism", first, second, "run-1", "run-2"
    )


def check_solo_serve(
    app: str,
    config: GMTConfig,
    oversubscription: float = PAPER_OVERSUBSCRIPTION,
    seed: int = 0,
) -> list[Violation]:
    """1-tenant serving must reproduce the single-stream replay, and the
    tenant slices must conserve the aggregate counters."""
    from repro.serve import TenantServer, build_tenants

    workload = get_workload(app, config, oversubscription, seed=seed)
    solo = GMTRuntime(config).run(workload)
    streams = build_tenants([app], config, oversubscription=oversubscription,
                            seed=seed)
    server = TenantServer(config, streams)
    outcome = server.run(solo_baselines=False)
    violations = _diff_counters(
        "metamorphic-solo-serve", outcome.result, solo, "served", "solo"
    )
    violations.extend(
        audit_split(server.runtime.stats, server.runtime.tenant_stats)
    )
    violations.extend(audit_stats(server.runtime.stats))
    return violations
