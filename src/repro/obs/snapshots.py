"""Windowed registry snapshots — watch a run's counters window by window.

End-of-run counters average a run's phases away (GMT-Reuse's cold
sampling window, Markov-history build-up, steady state).  Once the
:class:`~repro.core.stats.RuntimeStats` counters are registered in a
:class:`~repro.obs.metrics.MetricsRegistry` (see
``RuntimeStats.bind_registry``), :class:`WindowedSnapshotter` cuts delta
windows over *every* registered metric every N coalesced accesses, so
those phases become visible without a hand-maintained counter list.

Counters report the delta accrued inside the window; gauges report their
instantaneous value at the window boundary; histograms report count/sum
deltas.  Each window is a flat JSON-ready dict, so a stream of windows
exports directly via :func:`repro.obs.export.write_jsonl`.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class WindowedSnapshotter:
    """Delta snapshots of a registry every ``interval`` position units."""

    def __init__(self, registry: MetricsRegistry, interval: int = 10_000) -> None:
        if interval < 1:
            raise ConfigError(f"interval must be >= 1, got {interval}")
        self.registry = registry
        self.interval = interval
        #: Optional live hook: called with each freshly cut window dict
        #: (gmt-top's feed).  None costs one comparison per window.
        self.on_window = None
        self._windows: list[dict] = []
        self._last_position = 0
        self._last = self._capture()

    def _capture(self) -> dict[str, float]:
        counts: dict[str, float] = {}
        for metric in self.registry:
            if isinstance(metric, Histogram):
                counts[f"{metric.name}_count"] = metric.count
                counts[f"{metric.name}_sum"] = metric.sum
            elif isinstance(metric, Counter):
                counts[metric.name] = metric.value
        return counts

    def rebaseline(self, position: int = 0) -> None:
        """Reset the delta baseline to the registry's current values
        (called after attach-time metric registration)."""
        self._last = self._capture()
        self._last_position = position

    def flush(self, position: int) -> dict | None:
        """Cut the final partial window at end-of-run/detach.

        Without this, the tail of a replay — everything after the last
        full interval boundary — silently drops out of :meth:`windows`.
        Idempotent: a position that has not advanced cuts nothing.
        """
        if position <= self._last_position:
            return None
        return self.snapshot(position)

    @property
    def next_cut(self) -> int:
        """The position at which the next full-interval window is cut."""
        return self._last_position + self.interval

    def maybe_snapshot(self, position: int) -> dict | None:
        """Snapshot if ``position`` advanced a full interval past the last
        boundary; returns the new window dict (or None)."""
        if position - self._last_position < self.interval:
            return None
        return self.snapshot(position)

    def snapshot(self, position: int) -> dict:
        """Force a window boundary at ``position``."""
        now = self._capture()
        window: dict = {
            "window": len(self._windows),
            "position": position,
            "span": position - self._last_position,
        }
        # Metrics may register after construction (attach-time bindings);
        # a missing baseline reads as zero.
        for name, value in now.items():
            window[name] = value - self._last.get(name, 0)
        for metric in self.registry:
            if isinstance(metric, Gauge):
                window[metric.name] = metric.value
        self._windows.append(window)
        self._last = now
        self._last_position = position
        if self.on_window is not None:
            self.on_window(window)
        return window

    def windows(self) -> list[dict]:
        return list(self._windows)

    def series(self, name: str) -> list[float]:
        """One window field across all windows."""
        if self._windows and name not in self._windows[0]:
            raise ConfigError(f"unknown window field {name!r}")
        return [w[name] for w in self._windows]
