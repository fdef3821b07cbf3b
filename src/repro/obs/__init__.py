"""repro.obs — the GMT runtime's unified telemetry subsystem.

Three pillars (see docs/observability.md for the catalog and formats):

- :mod:`repro.obs.metrics` — typed counters, gauges and log-scale
  histograms in a :class:`MetricsRegistry`;
- :mod:`repro.obs.tracing` — :class:`SpanTracer` over the simulator's
  virtual clock, exportable as Chrome/Perfetto trace-event JSON;
- :mod:`repro.obs.export` / :mod:`repro.obs.snapshots` — Prometheus
  text, trace JSON and JSONL window streams;
- :mod:`repro.obs.lifecycle` — the page-lifecycle flight recorder (full
  or page-sampled) and the causal query engine behind the ``gmt-why``
  CLI;
- :mod:`repro.obs.anomaly` — thrash / bypass-storm / latency-spike
  detection over windowed snapshots;
- :mod:`repro.obs.digest` — bounded-memory streaming quantile digests
  (:class:`LatencyDigest`) behind the latency-percentile gauges;
- :mod:`repro.obs.ledger` — the append-only JSONL run ledger and the
  rolling-median drift detection behind ``gmt-bench --trend``;
- :mod:`repro.obs.top` — the live ``gmt-top`` dashboard over window
  streams.

:class:`Telemetry` bundles them for one runtime; attach with
``runtime.attach_telemetry()`` (pass ``Telemetry(lifecycle=True)`` to
also record page lifecycles).
"""

from repro.obs.anomaly import Anomaly, AnomalyDetector
from repro.obs.digest import LatencyDigest
from repro.obs.export import (
    counter_track_events,
    chrome_trace_events,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.lifecycle import (
    LifecycleEvent,
    LifecycleKind,
    LifecycleQuery,
    LifecycleRecorder,
    SampledLifecycleRecorder,
    lifecycle_trace_events,
    load_lifecycle_jsonl,
    write_lifecycle_jsonl,
)
from repro.obs.metrics import (
    BoundCounter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    linear_buckets,
    log_buckets,
)
from repro.obs.ledger import (
    Drift,
    append_entry,
    detect_drift,
    read_ledger,
    record_run,
    scan_trend,
)
from repro.obs.snapshots import WindowedSnapshotter
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Span, SpanTracer

__all__ = [
    "Anomaly",
    "AnomalyDetector",
    "BoundCounter",
    "Counter",
    "Drift",
    "Gauge",
    "Histogram",
    "LatencyDigest",
    "LifecycleEvent",
    "LifecycleKind",
    "LifecycleQuery",
    "LifecycleRecorder",
    "MetricsRegistry",
    "SampledLifecycleRecorder",
    "Span",
    "SpanTracer",
    "Telemetry",
    "WindowedSnapshotter",
    "append_entry",
    "chrome_trace_events",
    "counter_track_events",
    "detect_drift",
    "lifecycle_trace_events",
    "linear_buckets",
    "load_lifecycle_jsonl",
    "log_buckets",
    "prometheus_text",
    "read_ledger",
    "record_run",
    "scan_trend",
    "write_chrome_trace",
    "write_jsonl",
    "write_lifecycle_jsonl",
    "write_prometheus",
]
