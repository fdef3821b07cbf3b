"""Exporters: Chrome/Perfetto trace-event JSON, Prometheus text, JSONL.

Three output formats, one per consumer:

- :func:`write_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev (open the file via
  "Open trace file").  Each runtime becomes a process; each span name
  becomes a thread-like track, so the miss path, eviction pipeline and
  reuse-pipeline stages render as parallel lanes on the virtual-time axis.
- :func:`prometheus_text` / :func:`write_prometheus` — the Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` / samples), suitable
  for ``promtool`` or a textfile-collector scrape.  Counter names gain
  the conventional ``_total`` suffix; registry constant labels become
  sample labels, so several runtimes merge into one snapshot.
- :func:`write_jsonl` — one JSON object per line; used for windowed
  snapshot streams (:mod:`repro.obs.snapshots`) and ad-hoc tooling.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import SpanTracer

#: Trace timestamps are microseconds in the Trace Event Format; the
#: simulator's virtual clock is nanoseconds.
_NS_PER_US = 1000.0


def counter_track_events(pid: int, windows: Iterable[Mapping]) -> list[dict]:
    """Perfetto counter events (``ph: "C"``) from a window stream.

    Each snapshot window becomes up to two counter samples on the
    virtual-time axis: the Tier-1/Tier-2 occupancy gauges (one track,
    two series — Perfetto stacks multi-key counter args), and the
    window's Tier-2 bypass fraction of evictions.  Rendered above the
    span lanes, they show *when* the hierarchy filled up or started
    bypassing, in the same timeline as the misses that caused it.
    """
    events: list[dict] = []
    for window in windows:
        ts = float(window.get("gmt_virtual_time_ns", 0.0)) / _NS_PER_US
        occupancy: dict[str, float] = {}
        if "gmt_tier1_occupancy" in window:
            occupancy["tier1"] = float(window["gmt_tier1_occupancy"])
        if "gmt_tier2_occupancy" in window:
            occupancy["tier2"] = float(window["gmt_tier2_occupancy"])
        if occupancy:
            events.append(
                {
                    "name": "tier occupancy (pages)",
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "args": occupancy,
                }
            )
        evictions = window.get("gmt_t1_evictions")
        placements = window.get("gmt_t2_placements")
        if evictions is not None and placements is not None:
            bypassed = max(0.0, float(evictions) - float(placements))
            events.append(
                {
                    "name": "tier2 bypass rate",
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "args": {
                        "bypass": round(bypassed / evictions, 4) if evictions else 0.0
                    },
                }
            )
    return events


def chrome_trace_events(
    tracers: Mapping[str, SpanTracer] | Iterable[tuple[str, SpanTracer]],
    windows: Mapping[str, Iterable[Mapping]] | None = None,
) -> list[dict]:
    """Build Trace Event Format dicts from named tracers.

    Args:
        tracers: mapping (or pairs) of ``process name -> SpanTracer`` —
            one entry per runtime.
        windows: optional ``process name -> window stream`` (see
            :meth:`~repro.obs.telemetry.Telemetry.windows`); matching
            processes gain occupancy/bypass counter tracks
            (:func:`counter_track_events`).
    """
    items = tracers.items() if isinstance(tracers, Mapping) else list(tracers)
    # Metadata events (process/thread names) lead; timed events follow
    # sorted by timestamp so viewers never re-sort large traces.
    metadata: list[dict] = []
    events: list[dict] = []
    for pid, (process, tracer) in enumerate(items):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
        tids: dict[tuple, int] = {}
        for span in tracer:
            # Multi-tenant runs label spans with a ``tenant`` arg; keep
            # each tenant on its own track so lanes never interleave.
            tenant = span.args.get("tenant") if span.args else None
            track = (span.name, tenant)
            tid = tids.get(track)
            if tid is None:
                tid = len(tids)
                tids[track] = tid
                track_name = span.name if tenant is None else f"{span.name} [{tenant}]"
                metadata.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": track_name},
                    }
                )
            event = {
                "name": span.name,
                "cat": span.cat,
                "pid": pid,
                "tid": tid,
                "ts": span.ts_ns / _NS_PER_US,
            }
            if span.args:
                # Arg-less spans omit the key entirely (a bare ``"args":
                # null`` is tolerated by Perfetto but is pure noise).
                event["args"] = span.args
            if span.instant:
                event["ph"] = "i"
                event["s"] = "t"
            else:
                event["ph"] = "X"
                event["dur"] = (span.dur_ns or 0.0) / _NS_PER_US
            events.append(event)
        if windows is not None and process in windows:
            events.extend(counter_track_events(pid, windows[process]))
    events.sort(key=lambda e: e["ts"])
    return metadata + events


def write_chrome_trace(
    path: str,
    tracers: Mapping[str, SpanTracer] | Iterable[tuple[str, SpanTracer]],
    windows: Mapping[str, Iterable[Mapping]] | None = None,
) -> int:
    """Write a Perfetto-loadable trace JSON; returns the event count."""
    events = chrome_trace_events(tracers, windows=windows)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
    return len(events)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """``# HELP`` line escaping: backslash and newline only (the
    exposition format leaves quotes alone on HELP lines)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _labels(pairs: dict[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in sorted(pairs.items()))
    return "{" + inner + "}"


def _bound_repr(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def prometheus_text(registries: MetricsRegistry | Iterable[MetricsRegistry]) -> str:
    """Render one or more registries in the Prometheus text format.

    Metrics sharing a name across registries (the same counter for
    several runtimes) emit one ``# HELP``/``# TYPE`` header and one sample
    per registry, distinguished by the registries' constant labels.
    """
    if isinstance(registries, MetricsRegistry):
        registries = [registries]
    lines: list[str] = []
    seen_headers: set[str] = set()

    # Group samples under a single header per exported name.
    grouped: dict[str, list[str]] = {}
    order: list[str] = []

    def header(name: str, kind: str, help_text: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        order.append(name)
        bucket = grouped.setdefault(name, [])
        if help_text:
            bucket.append(f"# HELP {name} {_escape_help(help_text)}")
        bucket.append(f"# TYPE {name} {kind}")

    for registry in registries:
        labels = registry.const_labels
        for metric in registry:
            if isinstance(metric, Histogram):
                name = metric.name
                header(name, "histogram", metric.help)
                bucket = grouped[name]
                for bound, cumulative in metric.bucket_counts():
                    le = dict(labels)
                    le["le"] = _bound_repr(bound)
                    bucket.append(f"{name}_bucket{_labels(le)} {cumulative}")
                bucket.append(f"{name}_sum{_labels(labels)} {metric.sum}")
                bucket.append(f"{name}_count{_labels(labels)} {metric.count}")
            elif isinstance(metric, Counter):
                name = metric.name if metric.name.endswith("_total") else f"{metric.name}_total"
                header(name, "counter", metric.help)
                grouped[name].append(f"{name}{_labels(labels)} {metric.value}")
            elif isinstance(metric, Gauge):
                name = metric.name
                header(name, "gauge", metric.help)
                grouped[name].append(f"{name}{_labels(labels)} {metric.value}")

    for name in order:
        lines.extend(grouped[name])
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(
    path: str,
    registries: MetricsRegistry | Iterable[MetricsRegistry],
) -> str:
    """Write a Prometheus text snapshot; returns the rendered text."""
    text = prometheus_text(registries)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(path: str, records: Iterable[Mapping]) -> int:
    """Write one JSON object per line; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(dict(record), default=str))
            fh.write("\n")
            count += 1
    return count
