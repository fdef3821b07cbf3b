"""Engine selection: one place that turns a config into a runtime.

Every tool (``gmt-sim``, ``gmt-serve``, ``gmt-bench``, ``gmt-check``, the
experiment harness) routes runtime construction through
:func:`make_runtime` instead of calling ``GMTRuntime(config)`` directly,
so ``GMTConfig.engine`` / ``--engine`` behave identically everywhere:

- ``"scalar"`` — the reference per-access Python loop;
- ``"vector"`` — the struct-of-arrays batch engine
  (:mod:`repro.core.vector`), byte-identical results, 10-50x faster on
  hit-dominated streams;
- ``"auto"`` — vector unless something genuinely needs per-access
  observation: a full flight recorder / profiler
  (``recorder=True``), periodic conformance checks (``checks=True``),
  or a policy-zoo Tier-1 structure with no vector twin.  Batch-capable
  telemetry (windowed snapshots, latency digests, counter tracks,
  anomaly scans, sampled lifecycle streams — see :mod:`repro.obs.batch`)
  does *not* demote: pass ``telemetry=True`` and "auto" stays vector.
  A vector runtime that later gets per-access instruments attached
  silently replays scalar (see :meth:`~repro.core.vector.
  VectorEngineMixin._vector_ready`), so "auto" is always safe — the
  resolution is a fast-path choice, never a correctness one.

The *resolved* engine and the reason behind it are first-class:
:func:`resolve_engine_reason` returns both, :func:`make_runtime` stamps
them on the runtime, and every runtime exposes ``engine_resolution()``
— the surface the CLIs print and the ledger records.
"""

from __future__ import annotations

from repro.core.config import ENGINE_NAMES, GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError

__all__ = [
    "ENGINE_NAMES",
    "make_runtime",
    "resolve_engine",
    "resolve_engine_reason",
]


def resolve_engine_reason(
    engine: str | None,
    config: GMTConfig,
    *,
    recorder: bool = False,
    checks: bool = False,
    telemetry: bool = False,
) -> tuple[str, str]:
    """Resolve an engine request to ``("scalar"|"vector", reason)``.

    Args:
        engine: explicit request, or None to use ``config.engine``.
        config: the run's configuration.
        recorder: the caller will attach genuinely per-access
            instrumentation (full flight recorder / profiler) —
            demotes "auto" to scalar.
        checks: the caller will enable periodic conformance checks —
            demotes "auto" to scalar.
        telemetry: the caller will attach *batch-capable* telemetry
            (windows/digests/counter tracks/anomaly scan/sampled
            lifecycle).  Informational only: "auto" stays vector, and
            the reason says so.
    """
    if engine is None:
        engine = config.engine
    if engine not in ENGINE_NAMES:
        raise ConfigError(f"engine must be one of {ENGINE_NAMES}, got {engine!r}")
    if engine != "auto":
        return engine, f"engine={engine!r} requested explicitly"
    if recorder:
        return "scalar", "auto: a per-access recorder will attach"
    if checks:
        return "scalar", "auto: periodic conformance checks audit every access"
    if config.tier1_eviction != "clock":
        return "scalar", (
            f"auto: tier1_eviction={config.tier1_eviction!r} has no vector twin"
        )
    if telemetry:
        return "vector", "auto: telemetry is batch-capable"
    return "vector", "auto: no per-access consumers"


def resolve_engine(
    engine: str | None,
    config: GMTConfig,
    *,
    recorder: bool = False,
    checks: bool = False,
    telemetry: bool = False,
) -> str:
    """:func:`resolve_engine_reason` without the reason."""
    return resolve_engine_reason(
        engine, config, recorder=recorder, checks=checks, telemetry=telemetry
    )[0]


def make_runtime(
    config: GMTConfig,
    *,
    runtime_cls: type[GMTRuntime] = GMTRuntime,
    engine: str | None = None,
    recorder: bool = False,
    checks: bool = False,
    telemetry: bool = False,
    **kwargs,
) -> GMTRuntime:
    """Construct a runtime honouring the engine selection surface.

    Args:
        config: the run's configuration (``config.engine`` is the default
            engine request).
        runtime_cls: runtime class to instantiate — :class:`GMTRuntime`
            or any subclass whose access path it inherits (the BaM / HMM /
            Dragon baselines, the oracle's policy-factory runs).
        engine: explicit ``"scalar"``/``"vector"``/``"auto"`` override of
            ``config.engine``.
        recorder / checks / telemetry: see :func:`resolve_engine_reason`
            — lets callers that are about to attach instrumentation
            steer "auto" up front instead of paying the vector engine's
            fallback.
        **kwargs: forwarded to ``runtime_cls`` (e.g. ``policy_factory``).
    """
    resolved, reason = resolve_engine_reason(
        engine, config, recorder=recorder, checks=checks, telemetry=telemetry
    )
    if resolved == "vector":
        from repro.core.vector import vector_variant

        runtime_cls = vector_variant(runtime_cls)
    runtime = runtime_cls(config, **kwargs)
    runtime.engine_reason = reason
    return runtime
