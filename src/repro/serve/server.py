"""The tenant server: replay N workload streams over one shared hierarchy.

:class:`TenantServer` is the serving layer's front door.  It builds the
merged schedule (:mod:`repro.serve.scheduler`), drives one
:class:`~repro.serve.runtime.TenantAwareRuntime` warp-by-warp while
switching the accounting/quota context to the issuing tenant, and returns
a :class:`ServeResult` carrying the aggregate :class:`RunResult` plus one
:class:`TenantResult` per stream — per-tenant counters, completion time,
slowdown versus a solo run of the same stream, and Jain-fairness
summaries across the mix.

Quick start::

    from repro.core.config import GMTConfig
    from repro.serve import TenantServer, build_tenants, QuotaConfig

    config = GMTConfig.paper_default(scale=2048)
    streams = build_tenants(["bfs", "pagerank"], config)
    server = TenantServer(config, streams, discipline="weighted-fair",
                          quota=QuotaConfig(mode="static"))
    outcome = server.run()
    print(outcome.to_table())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.metrics import jain_index
from repro.analysis.report import render_table
from repro.core.config import GMTConfig, PAPER_OVERSUBSCRIPTION
from repro.core.runtime import GMTRuntime, RunResult
from repro.core.stats import RuntimeStats
from repro.errors import ConfigError, SimulationError
from repro.serve.quota import QuotaConfig
from repro.serve.runtime import TenantAwareRuntime
from repro.serve.scheduler import SCHEDULER_NAMES, make_scheduler, warp_bytes
from repro.serve.stream import MAX_TENANTS, TenantSpec, TenantStream, lay_out_streams
from repro.units import format_bytes, format_time
from repro.workloads.registry import make_workload, normalize_name


@dataclass
class TenantResult:
    """One tenant's slice of a served run."""

    tenant: str
    workload: str
    weight: float
    stats: RuntimeStats
    issued_warps: int
    issued_bytes: int
    #: Aggregate modelled time when this tenant's stream drained.
    finish_ns: float
    #: Elapsed time of the same stream replayed solo (None = not measured).
    solo_ns: float | None = None
    peak_tier1: int = 0
    peak_tier2: int = 0
    tier1_budget: int | None = None
    tier2_budget: int | None = None
    #: Streaming-digest percentiles of the tenant's modelled miss
    #: latency (None = telemetry was not attached / tenant never missed).
    latency_p50_ns: float | None = None
    latency_p99_ns: float | None = None
    #: Same percentiles from the tenant's *solo* baseline replay (None =
    #: solos skipped, telemetry off, or the solo never missed).
    solo_latency_p50_ns: float | None = None
    solo_latency_p99_ns: float | None = None
    #: SLO targets from the tenant's spec (None = no target set).
    slo_p50_ns: float | None = None
    slo_p99_ns: float | None = None

    @property
    def slowdown(self) -> float | None:
        """Completion-time inflation vs the solo run (>1 = slower shared)."""
        if self.solo_ns is None:
            return None
        if self.solo_ns <= 0:
            raise SimulationError(
                f"tenant {self.tenant!r}: solo baseline has zero elapsed time"
            )
        return self.finish_ns / self.solo_ns

    @property
    def slo_violations(self) -> list[str]:
        """Which latency targets the tenant missed (empty = all met or
        no targets/measurements)."""
        violated = []
        for label, measured, target in (
            ("p50", self.latency_p50_ns, self.slo_p50_ns),
            ("p99", self.latency_p99_ns, self.slo_p99_ns),
        ):
            if measured is not None and target is not None and measured > target:
                violated.append(label)
        return violated


@dataclass
class ServeResult:
    """Outcome of one served mix."""

    discipline: str
    quota_mode: str
    result: RunResult
    tenants: list[TenantResult] = field(default_factory=list)

    @property
    def elapsed_ns(self) -> float:
        """Makespan of the whole mix."""
        return self.result.elapsed_ns

    def slowdowns(self) -> list[float]:
        """Per-tenant slowdowns (empty when solo baselines were skipped)."""
        return [t.slowdown for t in self.tenants if t.slowdown is not None]

    def fairness(self) -> dict[str, float]:
        """min/max slowdown and Jain's index over the tenants' slowdowns.

        Jain's index is computed over *normalised service* (1/slowdown),
        so equal slowdowns — however large — score a perfect 1.0 and one
        starved tenant drags the index toward 1/N.
        """
        slowdowns = self.slowdowns()
        if not slowdowns:
            return {}
        service = [1.0 / s for s in slowdowns]
        return {
            "min_slowdown": min(slowdowns),
            "max_slowdown": max(slowdowns),
            "jain_index": jain_index(service),
        }

    def to_table(self) -> str:
        """Human-readable per-tenant comparison (CLI/report rendering)."""
        headers = [
            "tenant", "workload", "warps", "T1 hit", "SSD I/O",
            "finish", "slowdown", "p50/p99", "peak T1 (budget)", "peak T2 (budget)",
        ]
        rows: list[list[object]] = []
        for t in self.tenants:
            rows.append(
                [
                    t.tenant,
                    t.workload,
                    t.issued_warps,
                    f"{t.stats.t1_hit_rate:.0%}",
                    format_bytes(t.stats.io_bytes(self.result.page_size)),
                    format_time(t.finish_ns),
                    "-" if t.slowdown is None else f"{t.slowdown:.2f}x",
                    _latency_cell(t),
                    _peak_cell(t.peak_tier1, t.tier1_budget),
                    _peak_cell(t.peak_tier2, t.tier2_budget),
                ]
            )
        title = (
            f"{self.result.runtime_name} serving {len(self.tenants)} tenants "
            f"(discipline={self.discipline}, quotas={self.quota_mode}): "
            f"makespan {format_time(self.elapsed_ns)}"
        )
        text = render_table(headers, rows, title=title)
        fairness = self.fairness()
        if fairness:
            text += (
                f"\n  fairness: slowdown min {fairness['min_slowdown']:.2f}x / "
                f"max {fairness['max_slowdown']:.2f}x, "
                f"Jain's index {fairness['jain_index']:.3f}"
            )
        return text


def _peak_cell(peak: int, budget: int | None) -> str:
    return f"{peak}" if budget is None else f"{peak} ({budget})"


def _latency_cell(t: TenantResult) -> str:
    """``p50/p99`` miss-latency cell, flagging SLO violations with ``!``."""
    if t.latency_p50_ns is None and t.latency_p99_ns is None:
        return "-"
    violated = t.slo_violations
    parts = []
    for label, value in (("p50", t.latency_p50_ns), ("p99", t.latency_p99_ns)):
        text = "-" if value is None else format_time(value)
        if label in violated:
            text += "!"
        parts.append(text)
    return "/".join(parts)


def build_tenants(
    specs: list[str | TenantSpec],
    config: GMTConfig,
    oversubscription: float = PAPER_OVERSUBSCRIPTION,
    seed: int = 0,
    share_working_set: bool = True,
) -> list[TenantStream]:
    """Size one :class:`TenantStream` per spec, in contiguous page
    ranges (:func:`~repro.serve.stream.lay_out_streams`).

    Plain workload names become unit-weight specs.  With
    ``share_working_set`` (the default) the paper's aggregate working set
    — ``oversubscription x (Tier-1 + Tier-2)`` — is divided evenly among
    the tenants, so total memory pressure matches the single-tenant
    setup; otherwise every tenant gets the full working set.  A single
    tenant therefore always reproduces the single-stream sizing.  Tenant
    ``i`` generates with ``seed + i`` so same-workload tenants do not
    replay identical traces.
    """
    if not specs:
        raise ConfigError("need at least one tenant")
    if len(specs) > MAX_TENANTS:
        raise ConfigError(f"too many tenants ({len(specs)} > {MAX_TENANTS})")
    resolved: list[TenantSpec] = []
    seen: dict[str, int] = {}
    for entry in specs:
        if isinstance(entry, str):
            entry = TenantSpec(name=entry, workload=entry)
        key = normalize_name(entry.workload)
        name = entry.name
        if name in seen or any(
            s.name == name for s in resolved
        ):  # disambiguate duplicates: bfs, bfs-2, bfs-3 ...
            seen[name] = seen.get(name, 1) + 1
            name = f"{name}-{seen[name]}"
        entry = replace(entry, name=name, workload=key)
        resolved.append(entry)

    total_ws = config.working_set_frames(oversubscription)
    footprint = max(1, total_ws // len(resolved)) if share_working_set else total_ws
    return lay_out_streams(
        resolved,
        [
            make_workload(spec.workload, footprint, seed=seed + i)
            for i, spec in enumerate(resolved)
        ],
    )


class _DrainTracking:
    """Stream proxy that reports when the scheduler drains it.

    Exposes the attributes the disciplines read (``index`` / ``arrival``
    / ``weight``); iteration passes through and fires ``on_drained`` when
    the underlying stream is exhausted — the moment the tenant's
    completion time is stamped.
    """

    def __init__(self, stream: TenantStream, on_drained) -> None:
        self.index = stream.index
        self.arrival = stream.arrival
        self.weight = stream.weight
        self._stream = stream
        self._on_drained = on_drained

    def __iter__(self):
        yield from self._stream
        self._on_drained(self.index)


class TenantServer:
    """Multiplex tenant streams onto one shared :class:`GMTRuntime`.

    Args:
        config: shared hierarchy configuration.
        streams: the tenants (see :func:`build_tenants`).
        discipline: scheduling discipline (:data:`SCHEDULER_NAMES`).
        epoch: warps emitted per scheduling decision; 1 (the default)
            reproduces the historical per-warp interleave byte for
            byte, larger epochs trade interleave granularity for fewer
            decisions (and fewer tenant-context switches).
        quota: per-tenant tier budgets (default: none).
        policy_factory: forwarded to the runtime.
        tier1_policy / tier2_policy: server-wide default eviction policy
            for tenants whose :class:`TenantSpec` leaves the tier unset
            (``repro.policyzoo`` registry names).  When every tenant
            resolves to None the server keeps one shared structure per
            tier — the pre-zoo behaviour, byte-identical.
        governor: :class:`~repro.policyzoo.governor.GovernorConfig`
            enabling per-tenant migration admission control.
    """

    def __init__(
        self,
        config: GMTConfig,
        streams: list[TenantStream],
        discipline: str = "round-robin",
        quota: QuotaConfig | None = None,
        policy_factory=None,
        tier1_policy: str | None = None,
        tier2_policy: str | None = None,
        governor=None,
        epoch: int = 1,
    ) -> None:
        if not streams:
            raise ConfigError("TenantServer needs at least one tenant stream")
        if discipline not in SCHEDULER_NAMES:
            raise ConfigError(
                f"unknown discipline {discipline!r}; expected one of {SCHEDULER_NAMES}"
            )
        if epoch < 1:
            raise ConfigError(f"epoch must be >= 1, got {epoch}")
        for name in (tier1_policy, tier2_policy):
            if name is not None:
                from repro.policyzoo.registry import validate_policy_name

                validate_policy_name(name)
        self.config = config
        self.streams = streams
        self.discipline = discipline
        #: Warps emitted per scheduling decision (1 = the historical
        #: per-warp interleave, byte-identical to pre-epoch replays).
        self.epoch = epoch
        self.quota = quota or QuotaConfig()
        self._policy_factory = policy_factory
        self.governor = governor
        # Per-tenant policy resolution: the tenant's spec wins, then the
        # server-wide default.  All-None at a tier keeps that tier's
        # single shared structure (exact pre-zoo replay).
        tier1_policies = [s.spec.tier1_policy or tier1_policy for s in streams]
        tier2_policies = [s.spec.tier2_policy or tier2_policy for s in streams]
        per_tenant_t1 = any(p is not None for p in tier1_policies)
        per_tenant_t2 = any(p is not None for p in tier2_policies)
        self.runtime = TenantAwareRuntime(
            config,
            streams,
            quota=self.quota,
            policy_factory=policy_factory,
            tier1_policies=tier1_policies if per_tenant_t1 else None,
            tier2_policies=tier2_policies if per_tenant_t2 else None,
            governor=governor,
        )

    # -- telemetry -------------------------------------------------------
    def attach_telemetry(self, telemetry=None):
        """Attach tenant-labelling telemetry to the shared runtime."""
        return self.runtime.attach_telemetry(telemetry)

    def tenant_registries(self, prefix: str = "gmt_") -> list:
        """Per-tenant metric registries (constant label ``tenant=<name>``).

        Each registry binds the tenant's private stats slice, so exporting
        them alongside the shared registry yields one Prometheus series
        per tenant per counter.
        """
        from repro.obs.metrics import MetricsRegistry

        registries = []
        base_labels = self.runtime.obs_labels()
        for stream, stats, digest in zip(
            self.streams, self.runtime.tenant_stats, self.runtime.tenant_digests
        ):
            labels = dict(base_labels)
            labels["tenant"] = stream.name
            reg = stats.bind_registry(MetricsRegistry(const_labels=labels), prefix)
            for q_name, q in (("p50", 0.50), ("p99", 0.99)):
                reg.gauge(
                    f"{prefix}tenant_latency_{q_name}_ns",
                    help=f"Streaming-digest {q_name} of this tenant's miss latency",
                    unit="ns",
                    fn=lambda d=digest, q=q: d.quantile(q),
                )
                target = getattr(stream.spec, f"slo_{q_name}_ns", None)
                if target is not None:
                    reg.gauge(
                        f"{prefix}tenant_slo_{q_name}_target_ns",
                        help=f"Configured {q_name} miss-latency SLO target",
                        unit="ns",
                        fn=lambda t=target: t,
                    )
                    reg.gauge(
                        f"{prefix}tenant_slo_{q_name}_ratio",
                        help=f"Measured {q_name} over its SLO target (>1 = violating)",
                        fn=lambda d=digest, q=q, t=target: d.quantile(q) / t,
                    )
            registries.append(reg)
        return registries

    # -- the serving loop ------------------------------------------------
    def run(
        self,
        solo_baselines: bool = True,
        solo_ns: dict[int, float] | None = None,
    ) -> ServeResult:
        """Replay the merged schedule; returns the mix outcome.

        Args:
            solo_baselines: replay every stream solo (same config, empty
                machine) to compute slowdowns.  Skipped when ``solo_ns``
                already provides the baselines.
            solo_ns: precomputed ``{tenant index: solo elapsed ns}`` —
                lets experiment sweeps amortise the solo runs across many
                served configurations.
        """
        runtime = self.runtime
        page_size = self.config.page_size
        scheduler = make_scheduler(self.discipline, epoch=self.epoch)
        issued_warps = [0] * len(self.streams)
        issued_bytes = [0] * len(self.streams)
        finish_ns: dict[int, float] = {}

        def on_drained(index: int) -> None:
            # Completion stamp: the aggregate modelled time when the
            # scheduler found the stream exhausted (for FIFO this is
            # immediately after the tenant's last warp; the interleaving
            # disciplines may be a few foreign warps late, which is noise
            # at trace scale).
            finish_ns[index] = runtime.elapsed_ns()
            runtime.finish_tenant(index)

        tracked = [_DrainTracking(s, on_drained) for s in self.streams]
        last_tenant: int | None = None
        for tenant, warp in scheduler.schedule(tracked, page_size):
            if tenant != last_tenant:
                runtime.begin_tenant(tenant)
                last_tenant = tenant
            runtime.access_warp(warp)
            issued_warps[tenant] += 1
            issued_bytes[tenant] += warp_bytes(warp, page_size)
        runtime.begin_tenant(None)
        result = runtime._finish_run()
        for stream in self.streams:
            # A scheduler that never pulled past a stream's end (or a
            # zero-warp stream) still gets a completion stamp.
            finish_ns.setdefault(stream.index, result.elapsed_ns)
        tenants: list[TenantResult] = []
        solo_digests: dict[int, object] = {}
        if solo_ns is None and solo_baselines:
            solo_ns = {}
            for s in self.streams:
                solo_telemetry = None
                if runtime._obs is not None:
                    # The served run is instrumented: instrument the solo
                    # baselines too, so per-tenant latency digests exist
                    # for both sides of the slowdown comparison.
                    from repro.obs import Telemetry

                    solo_telemetry = Telemetry(
                        labels={"runtime": f"solo-{s.name}", "tenant": s.name}
                    )
                solo_ns[s.index] = self.solo_run(
                    s, telemetry=solo_telemetry
                ).elapsed_ns
                if solo_telemetry is not None:
                    solo_digests[s.index] = solo_telemetry.latency_digest
        for stream in self.streams:
            idx = stream.index
            quotas = runtime.quotas
            digest = runtime.tenant_digests[idx]
            tenants.append(
                TenantResult(
                    tenant=stream.name,
                    workload=stream.spec.workload,
                    weight=stream.weight,
                    stats=runtime.tenant_stats[idx],
                    issued_warps=issued_warps[idx],
                    issued_bytes=issued_bytes[idx],
                    finish_ns=finish_ns[idx],
                    solo_ns=None if solo_ns is None else solo_ns.get(idx),
                    latency_p50_ns=digest.p50 if digest.count else None,
                    latency_p99_ns=digest.p99 if digest.count else None,
                    solo_latency_p50_ns=(
                        solo_digests[idx].p50
                        if idx in solo_digests and solo_digests[idx].count
                        else None
                    ),
                    solo_latency_p99_ns=(
                        solo_digests[idx].p99
                        if idx in solo_digests and solo_digests[idx].count
                        else None
                    ),
                    slo_p50_ns=stream.spec.slo_p50_ns,
                    slo_p99_ns=stream.spec.slo_p99_ns,
                    peak_tier1=quotas.peak(1, idx),
                    peak_tier2=quotas.peak(2, idx),
                    tier1_budget=(
                        quotas.static_tier1_budget(idx) if quotas.enabled else None
                    ),
                    tier2_budget=(
                        quotas.static_tier2_budget(idx) if quotas.enabled else None
                    ),
                )
            )
        return ServeResult(
            discipline=self.discipline,
            quota_mode=self.quota.mode,
            result=result,
            tenants=tenants,
        )

    def solo_run(self, stream: TenantStream, telemetry=None) -> RunResult:
        """Replay one tenant's workload alone on a fresh, unshared runtime.

        On an empty machine the constant page-id shift of the tenant's
        range changes nothing, so the solo replays ``stream.workload``'s
        own page ids, with prefetches held inside its footprint as the
        served run holds them inside the range.  ``telemetry`` (a
        :class:`~repro.obs.Telemetry`) is attached before the replay.
        """
        config = replace(self.config, footprint_pages=stream.footprint_pages)
        runtime = GMTRuntime(config, policy_factory=self._policy_factory)
        if telemetry is not None:
            runtime.attach_telemetry(telemetry)
        return runtime.run(stream.workload)
