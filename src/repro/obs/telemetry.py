"""The :class:`Telemetry` facade — one object per instrumented run.

Bundles the three pillars of :mod:`repro.obs` for a runtime:

- a :class:`~repro.obs.metrics.MetricsRegistry` holding the runtime's
  counters (bound to :class:`~repro.core.stats.RuntimeStats` fields and
  the PCIe/NVMe byte accounting), derived-rate gauges, and the always-on
  histograms (fault latency, transfer sizes, reuse distances, Markov
  confidence);
- a :class:`~repro.obs.tracing.SpanTracer` fed by the runtime's miss
  path, eviction pipeline, Tier-2 maintenance, writeback, and the reuse
  pipeline's sampler/regression stages;
- a :class:`~repro.obs.snapshots.WindowedSnapshotter` emitting periodic
  delta windows over the registry (``telemetry.windows()``).

Wiring is one call::

    runtime = GMTRuntime(config)
    telemetry = runtime.attach_telemetry()
    runtime.run(workload)
    write_chrome_trace("trace.json", {telemetry.name: telemetry.tracer})
    write_prometheus("metrics.prom", telemetry.registry)

Disabled telemetry is the default and costs one ``self._obs is None``
check per emission point in the runtime — no registry, no tracer, no
allocation (see docs/observability.md for the measured overhead).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.obs.digest import LatencyDigest
from repro.obs.lifecycle import LifecycleRecorder, SampledLifecycleRecorder
from repro.obs.metrics import Histogram, MetricsRegistry, linear_buckets, log_buckets
from repro.obs.snapshots import WindowedSnapshotter
from repro.obs.tracing import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import GMTRuntime


class Telemetry:
    """Metrics + spans + windows for one runtime replay.

    Args:
        labels: extra constant labels for the registry (merged with the
            runtime's own labels at attach time).
        trace_capacity: span bound for the tracer (None = unbounded).
        window: delta-window interval in coalesced accesses.
        lifecycle: enable the page-lifecycle flight recorder
            (:mod:`repro.obs.lifecycle`): ``False`` (default, off),
            ``True`` (on, default ring capacity), or an ``int`` ring
            capacity.  Off costs nothing — the runtime keeps its
            ``self._flight is None`` fast path.
        lifecycle_sample_rate: record only a deterministic hash-sampled
            subset of pages' complete journeys
            (:class:`~repro.obs.lifecycle.SampledLifecycleRecorder`).
            Implies ``lifecycle`` when set.
    """

    def __init__(
        self,
        labels: dict[str, str] | None = None,
        trace_capacity: int | None = 100_000,
        window: int = 10_000,
        lifecycle: bool | int = False,
        lifecycle_sample_rate: float | None = None,
    ) -> None:
        self.registry = MetricsRegistry(const_labels=labels)
        self.tracer = SpanTracer(capacity=trace_capacity)
        self.name = labels.get("runtime", "run") if labels else "run"
        self._runtime: GMTRuntime | None = None
        self._cost = None  # the runtime's CostModel; drives the trace clock
        #: Set by a serving runtime: returns the issuing tenant's label
        #: (or None), stamped as ``tenant=`` on spans, instants and
        #: misses; a labelled miss also feeds ``tenant_digests[label]``.
        self.tenant_source = None
        self.tenant_digests: dict[str, LatencyDigest] = {}
        #: Optional page-lifecycle flight recorder (None = disabled).
        self.lifecycle = None
        if lifecycle or lifecycle_sample_rate is not None:
            self.enable_lifecycle(
                capacity=lifecycle if not isinstance(lifecycle, bool) else 100_000,
                sample_rate=lifecycle_sample_rate,
            )

    # -- instruments that exist before attach (usable standalone) -------
        reg = self.registry
        self.fault_latency: Histogram = reg.histogram(
            "gmt_fault_latency_ns",
            help="Critical-path latency of one Tier-1 demand miss",
            unit="ns",
            buckets=log_buckets(16.0, 2.0, 34),
        )
        self.pcie_transfer_bytes: Histogram = reg.histogram(
            "gmt_pcie_transfer_bytes",
            help="Size of individual Tier-1<->Tier-2 PCIe transfers",
            unit="bytes",
            buckets=log_buckets(1024.0, 2.0, 14),
        )
        self.nvme_io_bytes: Histogram = reg.histogram(
            "gmt_nvme_io_bytes",
            help="Size of individual NVMe read/write commands",
            unit="bytes",
            buckets=log_buckets(1024.0, 2.0, 14),
        )
        self.transfer_batch_pages: Histogram = reg.histogram(
            "gmt_transfer_batch_pages",
            help="Non-contiguous pages per transfer-engine batch",
            unit="pages",
            buckets=log_buckets(1.0, 2.0, 10),
        )
        self.reuse_distance: Histogram = reg.histogram(
            "gmt_reuse_distance",
            help="Sampled exact reuse distances (sampling window only)",
            buckets=log_buckets(1.0, 2.0, 26),
        )
        self.markov_confidence: Histogram = reg.histogram(
            "gmt_markov_confidence",
            help="Winning-transition weight share behind each Markov prediction",
            buckets=linear_buckets(0.1, 0.1, 10),
        )
        #: Streaming quantile digest over modelled miss latency — real
        #: percentiles (0.5% relative error), unlike the factor-of-2
        #: histogram buckets.  Exposed as callback gauges so snapshots,
        #: windows, and the Prometheus/JSONL exporters all carry them.
        self.latency_digest = LatencyDigest()
        for q_name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            reg.gauge(
                f"gmt_fault_latency_{q_name}_ns",
                help=f"Streaming-digest {q_name} of modelled miss latency",
                unit="ns",
                fn=lambda q=q: self.latency_digest.quantile(q),
            )
        self.snapshotter = WindowedSnapshotter(reg, interval=window)

    # ------------------------------------------------------------------
    # page-lifecycle flight recorder (optional)
    # ------------------------------------------------------------------
    def enable_lifecycle(
        self,
        capacity: int | None = 100_000,
        sample_rate: float | None = None,
    ):
        """Create (or return) the lifecycle flight recorder.

        Call before ``attach`` (or pass ``lifecycle=`` /
        ``lifecycle_sample_rate=`` to the constructor); the recorder is
        wired into the runtime's emission sites at attach time.  With
        ``sample_rate`` set, the recorder is a
        :class:`~repro.obs.lifecycle.SampledLifecycleRecorder`.  Returns
        the recorder.
        """
        if self.lifecycle is None:
            if sample_rate is not None:
                self.lifecycle = SampledLifecycleRecorder(
                    sample_rate, capacity=capacity
                )
            else:
                self.lifecycle = LifecycleRecorder(capacity=capacity)
            self.lifecycle.clock = lambda: self.now_ns
            if self._runtime is not None:
                self._runtime._flight = self.lifecycle
        return self.lifecycle

    # ------------------------------------------------------------------
    # virtual clock
    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> float:
        """Simulated-time cursor: the runtime's accumulated modelled ns."""
        if self._cost is None:
            return 0.0
        return self._cost.compute_ns + self._cost.fault_latency_ns

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, runtime: "GMTRuntime") -> "Telemetry":
        """Bind this telemetry to ``runtime`` (one runtime per Telemetry)."""
        if self._runtime is not None and self._runtime is not runtime:
            raise ConfigError("Telemetry is already attached to another runtime")
        self._runtime = runtime
        self._cost = runtime.cost
        self.name = runtime.name

        reg = self.registry
        for key, value in runtime.obs_labels().items():
            reg.const_labels.setdefault(key, str(value))

        # RuntimeStats counters/rates become registry metrics (zero-copy).
        runtime.stats.bind_registry(reg)

        # Link/device byte accounting.
        pcie = runtime.pcie
        reg.bind_counter("gmt_pcie_h2d_bytes", pcie, "h2d_bytes",
                         help="Host-to-device (Tier-2 fetch) bytes", unit="bytes")
        reg.bind_counter("gmt_pcie_d2h_bytes", pcie, "d2h_bytes",
                         help="Device-to-host (Tier-2 placement) bytes", unit="bytes")
        reg.bind_counter("gmt_pcie_h2d_transfers", pcie, "h2d_transfers")
        reg.bind_counter("gmt_pcie_d2h_transfers", pcie, "d2h_transfers")
        ssd = runtime.ssd
        reg.bind_counter("gmt_nvme_read_bytes", ssd, "read_bytes", unit="bytes")
        reg.bind_counter("gmt_nvme_write_bytes", ssd, "write_bytes", unit="bytes")
        reg.gauge("gmt_nvme_queue_depth",
                  help="NVMe queue-pair depth the runtime sustains",
                  fn=lambda s=ssd: s.queue_depth)
        reg.gauge("gmt_tier1_occupancy", help="Resident Tier-1 pages",
                  fn=lambda r=runtime: len(r.t1_clock))
        reg.gauge("gmt_tier2_occupancy", help="Resident Tier-2 pages",
                  fn=lambda r=runtime: len(r._t2_order))
        reg.gauge("gmt_t1_access_ns",
                  help="Modelled GPU-memory access latency (per-tier latency floor)",
                  fn=lambda p=runtime.config.platform: p.gpu_access_ns)
        reg.gauge("gmt_virtual_time_ns",
                  help="Accumulated modelled time (the trace clock); windows "
                       "capture it so window streams join onto the span axis",
                  fn=lambda: self.now_ns)

        # Flight recorder: hand the runtime the emission-site hook.
        if self.lifecycle is not None:
            runtime._flight = self.lifecycle

        # Size observers on the device models (None-guarded hot hooks).
        pcie.observer = self.pcie_transfer_bytes.observe
        ssd.observer = self._observe_nvme
        runtime.engine.observer = self._observe_transfer

        # Reuse-pipeline hooks (policy decides what it can offer).
        attach = getattr(runtime.policy, "attach_telemetry", None)
        if attach is not None:
            attach(self)

        # Delta windows start from the just-bound counters' current state.
        self.snapshotter.rebaseline(runtime.stats.coalesced_accesses)
        return self

    def finish(self) -> None:
        """Flush the final partial snapshot window (end-of-run hook).

        Called automatically by ``GMTRuntime.run`` and at detach;
        idempotent, so driving the runtime access-by-access and calling
        this once at the end is also fine.
        """
        if self._runtime is not None:
            self.snapshotter.flush(self._runtime.stats.coalesced_accesses)

    def detach(self) -> None:
        """Unhook from the runtime (the runtime clears its own ``_obs``)."""
        runtime = self._runtime
        if runtime is None:
            return
        self.finish()
        runtime.pcie.observer = None
        runtime.ssd.observer = None
        runtime.engine.observer = None
        if runtime._flight is self.lifecycle:
            runtime._flight = None
        self.tenant_source = None
        attach = getattr(runtime.policy, "attach_telemetry", None)
        if attach is not None:
            attach(None)
        self._runtime = None

    # -- device observer shims ------------------------------------------
    def _observe_nvme(self, num_bytes: int, write: bool) -> None:
        self.nvme_io_bytes.observe(num_bytes)

    def _observe_transfer(self, num_pages: int, mechanism: str) -> None:
        if num_pages:
            self.transfer_batch_pages.observe(num_pages)

    # ------------------------------------------------------------------
    # emission API used by the runtime's instrumented sites
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str, dur_ns: float, **args) -> None:
        """Record a timed span at the current virtual time."""
        tenant = self.tenant_source and self.tenant_source()
        if tenant is not None:
            args["tenant"] = tenant
        self.tracer.record(name, cat, self.now_ns, dur_ns, **args)

    def instant(self, name: str, cat: str, **args) -> None:
        """Record a zero-duration marker at the current virtual time."""
        tenant = self.tenant_source and self.tenant_source()
        if tenant is not None:
            args["tenant"] = tenant
        self.tracer.instant(name, cat, self.now_ns, **args)

    def on_miss(self, page: int, fault_ns: float, source: str) -> None:
        """One serviced demand miss: span + latency histogram + digest."""
        self.fault_latency.observe(fault_ns)
        self.latency_digest.observe(fault_ns)
        tenant = self.tenant_source and self.tenant_source()
        if tenant is None:
            self.tracer.record("miss", "access", self.now_ns, fault_ns, page=page, src=source)
        else:
            self.tenant_digests[tenant].observe(fault_ns)
            self.tracer.record("miss", "access", self.now_ns, fault_ns,
                               page=page, src=source, tenant=tenant)

    def tick(self, position: int) -> None:
        """Advance the delta-window clock (called per coalesced access)."""
        self.snapshotter.maybe_snapshot(position)

    # ------------------------------------------------------------------
    # export conveniences
    # ------------------------------------------------------------------
    def windows(self) -> list[dict]:
        return self.snapshotter.windows()

    def snapshot(self) -> dict[str, float]:
        return self.registry.snapshot()
