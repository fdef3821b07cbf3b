"""``gmt-top`` — a live dashboard over windowed telemetry snapshots.

The :class:`~repro.obs.snapshots.WindowedSnapshotter` already cuts every
instrumented replay into delta windows; this module renders that stream
as a terminal dashboard while the replay runs, top(1)-style:

- **tier occupancy bars** — resident pages vs capacity for Tier-1/Tier-2
  (the ``gmt_tier{1,2}_occupancy`` gauges);
- **window rates** — Tier-1 hit rate, Tier-2 bypass fraction of
  evictions, demand faults and their mean latency inside the window,
  plus host-side replay throughput (accesses/sec between frames);
- **cumulative latency digest** — p50/p90/p99 of modelled miss latency
  from the streaming digest gauges (real percentiles, not buckets);
- **per-tenant table** — when serving a mix, each tenant's digest
  percentiles against its SLO targets (violations flagged ``!``);
- **anomaly flags** — the :class:`~repro.obs.anomaly.AnomalyDetector`
  runs over the window stream as it grows; fresh findings surface in
  the frame and the total rides in the footer.

Rendering is plain ANSI (clear + home per frame) — no curses dependency,
so output redirects cleanly.  ``--plain`` (the default when stdout is
not a TTY, e.g. CI) emits one summary line per window instead of
redrawing, which makes the dashboard pipeable and testable.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigError
from repro.obs.anomaly import AnomalyDetector
from repro.units import format_time

#: ANSI: clear screen, cursor home.
_CLEAR = "\x1b[2J\x1b[H"

_BAR_WIDTH = 24


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    """``[#####.....]`` occupancy bar, clamped to [0, 1]."""
    fraction = min(1.0, max(0.0, fraction))
    filled = round(fraction * width)
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Dashboard:
    """Renders window dicts into dashboard frames (or plain lines).

    Wire it to a live run with :meth:`attach` (hooks the telemetry
    snapshotter's ``on_window``), or drive :meth:`update` by hand with
    recorded window dicts — the renderer only reads the dicts plus the
    optional tenant source, so tests and offline replays use the same
    path as the live CLI.

    Args:
        telemetry: the run's :class:`~repro.obs.telemetry.Telemetry`.
        title: headline (workload/runtime description).
        tier1_capacity / tier2_capacity: frame capacities for the bars.
        tenants: optional list of ``(name, digest, slo_p50, slo_p99)``
            providers; digests are read live at each frame.
        detector: anomaly detector (default thresholds when None).
        stream: output text stream (stdout).
        plain: one line per window instead of ANSI redraw.
        clock: host clock, injectable for tests.
    """

    def __init__(
        self,
        telemetry,
        title: str,
        tier1_capacity: int,
        tier2_capacity: int,
        tenants: list | None = None,
        detector: AnomalyDetector | None = None,
        stream=None,
        plain: bool = False,
        clock=time.perf_counter,
    ) -> None:
        if tier1_capacity < 1:
            raise ConfigError(f"tier1_capacity must be >= 1, got {tier1_capacity}")
        self.telemetry = telemetry
        self.title = title
        self.tier1_capacity = tier1_capacity
        self.tier2_capacity = tier2_capacity
        self.tenants = tenants or []
        self.detector = detector or AnomalyDetector()
        self.stream = stream if stream is not None else sys.stdout
        self.plain = plain
        self.clock = clock
        self.frames = 0
        self.anomalies: list = []
        self._last_wall: float | None = None
        self._last_position = 0
        self._throughput = 0.0

    # ------------------------------------------------------------------
    def attach(self) -> "Dashboard":
        """Subscribe to the telemetry's window stream."""
        self.telemetry.snapshotter.on_window = self.update
        return self

    def update(self, window: dict) -> None:
        """One freshly cut window: refresh rates, rescan, redraw."""
        now = self.clock()
        position = int(window.get("position", 0))
        if self._last_wall is not None and now > self._last_wall:
            self._throughput = (position - self._last_position) / (now - self._last_wall)
        self._last_wall = now
        self._last_position = position
        # Rescan the whole stream: the latency-spike rule is stateful
        # over trailing windows, so incremental scanning would need to
        # duplicate its bookkeeping.  Streams are thousands of windows
        # at most; the rescan is microseconds.
        self.anomalies = self.detector.scan(self.telemetry.windows())
        self.frames += 1
        if self.plain:
            self.stream.write(self.plain_line(window) + "\n")
        else:
            self.stream.write(_CLEAR + self.render(window))
        self.stream.flush()

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self, window: dict) -> str:
        """The full dashboard frame for ``window`` (no ANSI codes)."""
        lines = [self._headline(window), ""]
        t1 = window.get("gmt_tier1_occupancy", 0.0)
        t2 = window.get("gmt_tier2_occupancy", 0.0)
        lines.append(
            f"  Tier-1 {_bar(_rate(t1, self.tier1_capacity))} "
            f"{t1:>6.0f}/{self.tier1_capacity}"
        )
        lines.append(
            f"  Tier-2 {_bar(_rate(t2, self.tier2_capacity))} "
            f"{t2:>6.0f}/{self.tier2_capacity}"
            if self.tier2_capacity
            else "  Tier-2 (disabled)"
        )
        lines.append("")
        lines.append("  window:     " + self._window_rates(window))
        lines.append("  cumulative: " + self._cumulative(window))
        if self.tenants:
            lines.append("")
            lines.append("  tenant          p50          p99     SLO p99  flags")
            for row in self.tenants:
                lines.append("  " + self._tenant_row(row))
        lines.append("")
        lines.append(self._anomaly_footer())
        return "\n".join(lines) + "\n"

    def plain_line(self, window: dict) -> str:
        """One-line summary per window (``--plain`` / non-TTY mode)."""
        t1 = window.get("gmt_tier1_occupancy", 0.0)
        t2 = window.get("gmt_tier2_occupancy", 0.0)
        hits = window.get("gmt_t1_hits", 0.0)
        misses = window.get("gmt_t1_misses", 0.0)
        evictions = window.get("gmt_t1_evictions", 0.0)
        placements = window.get("gmt_t2_placements", 0.0)
        bypass = _rate(max(0.0, evictions - placements), evictions)
        p99 = window.get("gmt_fault_latency_p99_ns", 0.0)
        flagged = sum(
            1 for a in self.anomalies if a.window == int(window.get("window", -1))
        )
        flags = f"  anomalies+{flagged}" if flagged else ""
        return (
            f"w{int(window.get('window', 0)):04d} @{int(window.get('position', 0))} "
            f"t1 {t1:.0f}/{self.tier1_capacity} t2 {t2:.0f}/{self.tier2_capacity} "
            f"hit {_rate(hits, hits + misses):4.0%} byp {bypass:4.0%} "
            f"p99 {format_time(p99)}{flags}"
        )

    def _headline(self, window: dict) -> str:
        sim_ns = window.get("gmt_virtual_time_ns", 0.0)
        return (
            f"gmt-top — {self.title}  "
            f"(window {int(window.get('window', 0))}, "
            f"access {int(window.get('position', 0))}, "
            f"sim {format_time(sim_ns)})"
        )

    def _window_rates(self, window: dict) -> str:
        hits = window.get("gmt_t1_hits", 0.0)
        misses = window.get("gmt_t1_misses", 0.0)
        evictions = window.get("gmt_t1_evictions", 0.0)
        placements = window.get("gmt_t2_placements", 0.0)
        faults = window.get("gmt_fault_latency_ns_count", 0.0)
        fault_sum = window.get("gmt_fault_latency_ns_sum", 0.0)
        bypass = _rate(max(0.0, evictions - placements), evictions)
        mean = format_time(_rate(fault_sum, faults)) if faults else "-"
        throughput = (
            f"{self._throughput / 1e3:.1f}k acc/s host"
            if self._throughput
            else "- acc/s host"
        )
        return (
            f"hit {_rate(hits, hits + misses):4.0%}  bypass {bypass:4.0%}  "
            f"faults {faults:.0f}  mean fault {mean}  {throughput}"
        )

    def _cumulative(self, window: dict) -> str:
        hit_rate = window.get("gmt_t1_hit_rate", 0.0)
        parts = [f"hit {hit_rate:4.0%}"]
        for q in ("p50", "p90", "p99"):
            value = window.get(f"gmt_fault_latency_{q}_ns")
            if value is not None:
                parts.append(f"{q} {format_time(value)}")
        return "  ".join(parts)

    def _tenant_row(self, row) -> str:
        name, digest, slo_p50, slo_p99 = row
        if digest.count == 0:
            return f"{name:<12} {'-':>12} {'-':>12} {'-':>11}"
        p50, p99 = digest.p50, digest.p99
        flags = []
        if slo_p50 is not None and p50 > slo_p50:
            flags.append("p50!")
        if slo_p99 is not None and p99 > slo_p99:
            flags.append("p99!")
        slo_cell = format_time(slo_p99) if slo_p99 is not None else "-"
        return (
            f"{name:<12} {format_time(p50):>12} {format_time(p99):>12} "
            f"{slo_cell:>11}  {' '.join(flags)}"
        )

    def _anomaly_footer(self) -> str:
        if not self.anomalies:
            return "  anomalies: none"
        latest = self.anomalies[-1]
        return f"  anomalies: {len(self.anomalies)} total — latest {latest}"

    # ------------------------------------------------------------------
    def finish(self) -> str:
        """End-of-run summary line (printed after the last frame).

        First flushes the telemetry's final partial window — everything
        after the last full interval boundary — so it renders as a
        frame/line too.  ``GMTRuntime.run`` (both engines) already
        flushes at end-of-run, in which case this is a no-op; the
        explicit flush covers drivers that iterate access-by-access and
        never call ``run`` (``Telemetry.finish`` is idempotent).
        """
        finish = getattr(self.telemetry, "finish", None)
        if finish is not None:
            finish()
        summary = (
            f"{self.frames} windows rendered, {len(self.anomalies)} anomalies"
        )
        for rule in ("thrash", "bypass-storm", "latency-spike"):
            count = sum(1 for a in self.anomalies if a.rule == rule)
            if count:
                summary += f"  [{rule}: {count}]"
        return summary


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-top``.

    Replays a workload (or a served tenant mix with ``--tenants``) with
    telemetry attached and renders the dashboard live::

        gmt-top hotspot --scale 1024
        gmt-top --tenants bfs,hotspot:2 --slo-p99 5e6 --plain
    """
    from repro import flags
    from repro.experiments.harness import (
        RUNTIME_KINDS,
        RUNTIME_LABELS,
        build_runtime,
        default_config,
        get_workload,
    )
    from repro.obs import Telemetry
    from repro.workloads.registry import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(
        prog="gmt-top",
        description="Live dashboard over a replay's windowed telemetry",
    )
    parser.add_argument(
        "workload",
        nargs="?",
        choices=sorted(WORKLOAD_NAMES),
        help="Table 2 application (omit when using --tenants)",
    )
    parser.add_argument(
        "--tenants",
        metavar="W1[:WEIGHT],...",
        default=None,
        help="serve a tenant mix instead of a single replay "
        "(per-tenant digest table)",
    )
    parser.add_argument(
        "--runtime",
        default="reuse",
        choices=list(RUNTIME_KINDS),
        help="runtime kind for single-workload mode (default: reuse)",
    )
    flags.add(parser, "--scale", "--oversubscription", "--seed")
    parser.add_argument(
        "--window",
        type=int,
        default=2_000,
        help="refresh interval in coalesced accesses (default 2000)",
    )
    parser.add_argument(
        "--slo-p50", type=float, metavar="NS", default=None,
        help="with --tenants: p50 miss-latency SLO target per tenant (ns)",
    )
    parser.add_argument(
        "--slo-p99", type=float, metavar="NS", default=None,
        help="with --tenants: p99 miss-latency SLO target per tenant (ns)",
    )
    parser.add_argument(
        "--plain",
        action="store_true",
        help="one summary line per window instead of ANSI redraw "
        "(automatic when stdout is not a TTY)",
    )
    args = parser.parse_args(argv)

    if (args.workload is None) == (args.tenants is None):
        parser.error("give exactly one of a workload name or --tenants")

    plain = args.plain or not sys.stdout.isatty()
    telemetry = Telemetry(window=args.window)

    if args.tenants is not None:
        from dataclasses import replace

        from repro.cli import _parse_tenants
        from repro.serve import QuotaConfig, TenantServer, build_tenants

        config = default_config(args.scale)
        specs = _parse_tenants(args.tenants)
        if args.slo_p50 is not None or args.slo_p99 is not None:
            specs = [
                replace(s, slo_p50_ns=args.slo_p50, slo_p99_ns=args.slo_p99)
                for s in specs
            ]
        streams = build_tenants(
            specs, config, oversubscription=args.oversubscription, seed=args.seed
        )
        server = TenantServer(config, streams, quota=QuotaConfig())
        server.attach_telemetry(telemetry)
        dash = Dashboard(
            telemetry,
            title=f"serving {len(streams)} tenants ({args.tenants})",
            tier1_capacity=config.tier1_frames,
            tier2_capacity=config.tier2_frames,
            tenants=[
                (s.name, server.runtime.tenant_digests[s.index],
                 s.spec.slo_p50_ns, s.spec.slo_p99_ns)
                for s in streams
            ],
            plain=plain,
        ).attach()
        server.run(solo_baselines=False)
    else:
        config = default_config(args.scale)
        workload = get_workload(
            args.workload,
            config,
            oversubscription=args.oversubscription,
            seed=args.seed,
        )
        runtime = build_runtime(args.runtime, config)
        runtime.attach_telemetry(telemetry)
        dash = Dashboard(
            telemetry,
            title=f"{RUNTIME_LABELS[args.runtime]} replaying {workload.name}",
            tier1_capacity=config.tier1_frames,
            tier2_capacity=config.tier2_frames,
            plain=plain,
        ).attach()
        runtime.run(workload)

    print(dash.finish())
    return 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    sys.exit(main())
