"""Engine selection: one place that turns a config into a runtime.

Every tool (``gmt-sim``, ``gmt-serve``, ``gmt-bench``, ``gmt-check``, the
experiment harness) routes runtime construction through
:func:`make_runtime` instead of calling ``GMTRuntime(config)`` directly,
so ``GMTConfig.engine`` / ``--engine`` behave identically everywhere:

- ``"scalar"`` — the reference per-access Python loop;
- ``"vector"`` — the batched hit-run engine (:mod:`repro.core.vector`)
  over the scalar page table and clock, byte-identical results, 10-50x
  faster on hit-dominated streams;
- ``"auto"`` — vector unless the config's Tier-1 structure is a
  policy-zoo member with no vector twin.  Telemetry, lifecycle
  recorders (full or sampled), periodic conformance checks (see
  :mod:`repro.obs.batch`) and the phase profiler all ride the vector
  engine, and the Tier-1 structure is the only thing that makes a
  vector runtime replay scalar (see
  :meth:`~repro.core.vector.VectorEngineMixin._fallback_reason`), so
  "auto" is always safe — the resolution is a fast-path choice, never a
  correctness one.

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
    "resolve_engine_reason",
]


def resolve_engine_reason(
    engine: str | None, config: GMTConfig
) -> tuple[str, str]:
    """Resolve an engine request to ``("scalar"|"vector", reason)``.

    Args:
        engine: explicit request, or None to use ``config.engine``.
        config: the run's configuration.
    """
    if engine is None:
        engine = config.engine
    if engine not in ENGINE_NAMES:
        raise ConfigError(f"engine must be one of {ENGINE_NAMES}, got {engine!r}")
    if engine != "auto":
        return engine, f"engine={engine!r} requested explicitly"
    if config.tier1_eviction != "clock":
        return "scalar", (
            f"auto: tier1_eviction={config.tier1_eviction!r} has no vector twin"
        )
    return "vector", "auto: no per-access consumers"


def make_runtime(
    config: GMTConfig,
    *,
    runtime_cls: type[GMTRuntime] = GMTRuntime,
    engine: str | None = None,
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
        **kwargs: forwarded to ``runtime_cls`` (e.g. ``policy_factory``).
    """
    resolved, reason = resolve_engine_reason(engine, config)
    if resolved == "vector":
        from repro.core.vector import vector_variant

        runtime_cls = vector_variant(runtime_cls)
    runtime = runtime_cls(config, **kwargs)
    runtime.engine_reason = reason
    return runtime
