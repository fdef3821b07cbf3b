"""Stable facade: one import surface for scripts and notebooks.

Everything a downstream user of the reproduction needs, re-exported from
one module so internal refactors never break callers:

>>> from repro.api import GMTRuntime, RuntimeConfig, run_experiment
>>> config = RuntimeConfig.paper_default(scale=1024)
>>> runtime = GMTRuntime(config)
>>> results = run_experiment("fig9", scale=1024)

``repro.api`` is the **stable** surface: the names here are covered by
the compatibility promise in ``docs/api.md``.  Everything else —
``repro.core``, ``repro.mem``, ``repro.sim``, ... — is internal and may
be reshaped without notice; prefer these re-exports over deep imports.

- Runtime: :class:`GMTRuntime`, :class:`BamRuntime`, :class:`HmmRuntime`,
  :class:`DragonRuntime`, :class:`RuntimeConfig` (alias of
  :class:`GMTConfig`), :class:`RunResult`, :class:`RuntimeStats`.
  Every runtime's ``run`` retires Tier-1 hit runs in batches,
  byte-identical to its per-warp reference ``replay_per_warp`` (see
  ``docs/performance.md``).  ``runtime.engine_resolution()`` still
  returns ``("vector", reason)`` for callers that read it; nothing in
  the package does.
- Experiments: :class:`ExperimentSpec`, :func:`run_spec`,
  :func:`run_experiment`, :data:`EXPERIMENTS`, :class:`ExperimentResult`.
- Engine: :class:`Cell`, :class:`Engine`, :class:`ResultCache`,
  :func:`run_cells` — the parallel, cache-aware executor behind the CLI —
  and :class:`RunOptions`, how the cells it executes replay
  (``Engine(options=RunOptions(...))``).
- Serving: :func:`serve` — one call from workload names to a
  :class:`~repro.serve.server.ServeResult` — and the open-loop surface:
  :func:`serve_open_loop`, :class:`OpenLoopServer`,
  :class:`OpenLoopConfig`, :class:`OpenLoopResult`,
  :class:`TenantPopulation` (zipf-skewed synthetic fleets), and
  :func:`make_arrival_process` (seeded Poisson/bursty arrival
  processes) — see ``docs/serving.md``.
- Conformance: :func:`run_conformance` (differential/metamorphic check
  over one trace, see ``gmt-check``), :func:`audit_runtime` /
  :func:`audit_stats` (post-run stats-identity audits, return
  :class:`Violation` lists), :func:`assert_conformant`,
  :class:`CheckReport`, :exc:`ConformanceError`.
- Observability: :func:`profile` / :class:`PhaseProfiler`
  (phase-attributed wall-clock profiling, see ``gmt-prof``),
  :class:`LatencyDigest` (streaming latency percentiles), and the run
  ledger (:func:`record_run`, :func:`read_ledger`, :func:`scan_trend`,
  see ``gmt-bench --trend``).
- Policy zoo: :class:`EvictionPolicy` (the strategy interface),
  :func:`make_eviction_policy` / :data:`EVICTION_POLICY_NAMES` (the
  registry), :class:`PartitionedPolicy` (per-tenant routing), and
  :class:`GovernorConfig` / :class:`MigrationGovernor` (migration
  admission control) — see ``docs/policies.md``.
"""

from __future__ import annotations

from repro.baselines import BamRuntime, DragonRuntime, HmmRuntime
from repro.check import (
    CheckReport,
    Violation,
    assert_conformant,
    audit_runtime,
    audit_stats,
    run_conformance,
)
from repro.core import GMTConfig, GMTRuntime, RunResult, RuntimeStats
from repro.core.config import DEFAULT_SCALE
from repro.experiments.engine import Cell, Engine, EngineStats, ResultCache, run_cells
from repro.experiments.harness import ExperimentResult, RunOptions, default_config
from repro.experiments.runner import EXPERIMENTS, get_spec, run_experiment
from repro.experiments.spec import CellResults, ExperimentSpec, run_spec
from repro.errors import ConformanceError
from repro.obs.digest import LatencyDigest
from repro.obs.ledger import read_ledger, record_run, scan_trend
from repro.policyzoo import (
    EVICTION_POLICY_NAMES,
    EvictionPolicy,
    GovernorConfig,
    MigrationGovernor,
    PartitionedPolicy,
    make_eviction_policy,
)
from repro.prof import PhaseProfiler, profile, profile_replay
from repro.serve import (
    OpenLoopConfig,
    OpenLoopResult,
    OpenLoopServer,
    TenantPopulation,
    make_arrival_process,
)
from repro.sim import PlatformModel

#: The configuration type under its role name.  ``RuntimeConfig`` is the
#: stable alias; :class:`GMTConfig` remains for paper-flavoured code.
RuntimeConfig = GMTConfig


def serve(
    tenants: list,
    config: GMTConfig | None = None,
    *,
    scale: int = DEFAULT_SCALE,
    discipline: str = "round-robin",
    quota=None,
    tier1_policy: str | None = None,
    tier2_policy: str | None = None,
    governor: GovernorConfig | None = None,
    solo_baselines: bool = True,
    epoch: int = 1,
):
    """Serve a tenant mix on one shared hierarchy; returns a ``ServeResult``.

    Args:
        tenants: workload names (``["bfs", "pagerank"]``) or
            :class:`~repro.serve.stream.TenantSpec` entries.
        config: hierarchy configuration; defaults to
            ``default_config(scale)``.
        scale: byte-scale divisor used when ``config`` is omitted.
        discipline: interleaving discipline (``SCHEDULER_NAMES``).
        quota: optional :class:`~repro.serve.quota.QuotaConfig`.
        tier1_policy: default per-tenant Tier-1 eviction policy
            (:data:`EVICTION_POLICY_NAMES`); a per-tenant
            ``TenantSpec.tier1_policy`` overrides it.  Any non-``None``
            assignment switches the tier to partitioned (per-tenant)
            eviction structures.
        tier2_policy: same, for Tier-2.
        governor: optional :class:`GovernorConfig` enabling per-tenant
            migration admission control.
        solo_baselines: also replay each stream solo so per-tenant
            slowdowns and fairness are populated.
        epoch: warps emitted per scheduling decision (1 = the
            historical per-warp interleave, byte-identical).
    """
    from repro.serve import TenantServer, build_tenants

    if config is None:
        config = default_config(scale)
    streams = build_tenants(list(tenants), config)
    server = TenantServer(
        config,
        streams,
        discipline=discipline,
        quota=quota,
        tier1_policy=tier1_policy,
        tier2_policy=tier2_policy,
        governor=governor,
        epoch=epoch,
    )
    return server.run(solo_baselines=solo_baselines)


def serve_open_loop(
    tenants: int,
    config: GMTConfig | None = None,
    *,
    scale: int = DEFAULT_SCALE,
    loop: OpenLoopConfig | None = None,
    seed: int = 0,
    workload: str = "keyvalue",
    slo_p50_ns: float | None = None,
    slo_p99_ns: float | None = None,
    quota=None,
):
    """Open-loop serve a zipf-skewed synthetic fleet; returns an
    :class:`OpenLoopResult`.

    Args:
        tenants: population size (each tenant gets a seeded synthetic
            workload with a zipf-skewed footprint and arrival share).
        config: hierarchy configuration; defaults to
            ``default_config(scale)``.
        scale: byte-scale divisor used when ``config`` is omitted.
        loop: the open-loop knobs (:class:`OpenLoopConfig`): arrival
            process and rate, request count, epoch, admission control.
        seed: population seed (workloads, footprints, weights).
        workload: synthetic workload registry name per tenant.
        slo_p50_ns / slo_p99_ns: per-tenant request-latency SLO targets.
        quota: optional :class:`~repro.serve.quota.QuotaConfig`.
    """
    if config is None:
        config = default_config(scale)
    population = TenantPopulation(
        tenants,
        seed=seed,
        workload=workload,
        slo_p50_ns=slo_p50_ns,
        slo_p99_ns=slo_p99_ns,
    )
    server = OpenLoopServer(config, population, loop, quota=quota)
    return server.run()


__all__ = [
    "BamRuntime",
    "Cell",
    "CellResults",
    "CheckReport",
    "ConformanceError",
    "DEFAULT_SCALE",
    "DragonRuntime",
    "EVICTION_POLICY_NAMES",
    "EXPERIMENTS",
    "Engine",
    "EngineStats",
    "EvictionPolicy",
    "ExperimentResult",
    "ExperimentSpec",
    "GMTConfig",
    "GMTRuntime",
    "GovernorConfig",
    "HmmRuntime",
    "LatencyDigest",
    "MigrationGovernor",
    "OpenLoopConfig",
    "OpenLoopResult",
    "OpenLoopServer",
    "PartitionedPolicy",
    "PhaseProfiler",
    "PlatformModel",
    "ResultCache",
    "RunOptions",
    "RunResult",
    "RuntimeConfig",
    "RuntimeStats",
    "TenantPopulation",
    "Violation",
    "assert_conformant",
    "audit_runtime",
    "audit_stats",
    "default_config",
    "get_spec",
    "make_arrival_process",
    "make_eviction_policy",
    "profile",
    "profile_replay",
    "read_ledger",
    "record_run",
    "run_cells",
    "run_conformance",
    "run_experiment",
    "run_spec",
    "scan_trend",
    "serve",
    "serve_open_loop",
]
