"""``repro.prof`` — phase-attributed wall-clock profiler for replays.

The replay hot path is pure Python, and every speed claim needs to show
*where* the wall time goes.  This module attributes host wall-clock
time to the runtime's named phases:

==================  ====================================================
phase               what it covers
==================  ====================================================
``trace-gen``       generating the workload's warp columns, the jitter,
                    and their flattening for the batched replay
``dispatch``        warp decomposition (:meth:`GMTRuntime.access_warp`)
                    and the batched replay loop
``access``          the coalesced access path's own bookkeeping, and
                    batched hit retirement
``page-table``      :meth:`PageTable.lookup`
``reuse-policy``    VTD clock, policy ``on_access``/``choose``/fills
``victim-select``   Tier-1 clock sweep / Tier-2 order victim nomination
``eviction``        the eviction pipeline outside its named leaves
``writeback``       dirty-page SSD writeback accounting
``prefetch``        the sequential prefetcher
``device-model``    PCIe/NVMe byte accounting and the queueing model
``stats-obs``       telemetry/flight-recorder emission overhead
==================  ====================================================

Attribution is *exclusive* (self-time): each sample's wall is charged
to the innermost active phase only, so the phase totals sum to
(approximately) the replay wall time and the ``stack -> self seconds``
map renders directly as a collapsed-stack flamegraph (``flamegraph.pl``
/ speedscope both read the format).

A ``SIGPROF`` interval timer fires every ``interval`` seconds of CPU
time; its handler runs in the main thread at the next bytecode
boundary, maps the interrupted stack's code objects to phases via a
table built at attach time, and charges the wall since the previous
sample to the innermost phase.  (A sampler *thread* would only see the
replay when it released the GIL, which numpy calls do voluntarily, so
it would charge most of a batched replay to the numpy-calling batch
loop.)  The handler only reads frames: nothing on the runtime is
wrapped or replaced, so a profiled replay runs the way an unprofiled
one does, produces the same results, and costs a few percent.  Profile
from the main thread: only it runs signal handlers.

Profiling is **off by default and costs nothing when off**: a
non-profiled runtime has no timer and executes with zero extra
checks.  ``runtime._prof`` only marks the attachment (and guards
double-attach).

Quick start::

    from repro.prof import profile_replay

    runtime = build_runtime("reuse", config)
    prof, result = profile_replay(runtime, workload)
    print(prof.format_top())
    prof.write_collapsed("profile.folded")      # flamegraph.pl input

or, from the shell::

    gmt-prof hotspot --runtime reuse --scale 4096 --json-out before.json
    # ... change the code ...
    gmt-prof hotspot --runtime reuse --scale 4096 --json-out after.json
    gmt-prof --compare before.json after.json
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.errors import ConfigError, SimulationError

#: The named phases (docs table above).  ``format_top`` orders unknown
#: phases after these.
PHASES = (
    "trace-gen",
    "dispatch",
    "access",
    "page-table",
    "reuse-policy",
    "victim-select",
    "eviction",
    "writeback",
    "prefetch",
    "device-model",
    "stats-obs",
)

PROFILE_VERSION = 1


class PhaseProfiler:
    """Exclusive-time, frame-sampling phase profiler over one runtime's
    replay.

    Args:
        interval: sampling period in seconds of process CPU time (the
            kernel rounds it up to its timer tick).
    """

    def __init__(self, interval: float = 0.001) -> None:
        if interval <= 0:
            raise ConfigError(f"interval must be positive, got {interval}")
        self.interval = interval
        #: Exclusive (self) seconds per phase.
        self.self_s: dict[str, float] = defaultdict(float)
        #: Sampler hits per phase.
        self.calls: dict[str, int] = defaultdict(int)
        #: Collapsed stacks: ``"access;page-table" -> exclusive seconds``.
        self.stacks: dict[str, float] = defaultdict(float)
        #: Total replay wall seconds (set by :meth:`run`).
        self.wall_s = 0.0
        #: Coalesced accesses replayed under :meth:`run`.
        self.accesses = 0
        self._runtime = None
        #: ``code object -> phase`` lookup the sampler walks frames with.
        self._code_phases: dict[object, str] = {}
        #: The ``SIGPROF`` handler and timer attach replaced (None while
        #: detached); detach restores both.
        self._saved: tuple | None = None
        self._last = 0.0

    # ------------------------------------------------------------------
    # attachment and sampling
    # ------------------------------------------------------------------
    def attach(self, runtime) -> "PhaseProfiler":
        """Build ``runtime``'s code-object table and start the sampling
        timer (one runtime per profiler; raises if either side is
        already attached, or off the main thread)."""
        if self._runtime is not None:
            raise ConfigError("PhaseProfiler is already attached to a runtime")
        if getattr(runtime, "_prof", None) is not None:
            raise ConfigError("runtime already has an attached profiler")
        if threading.current_thread() is not threading.main_thread():
            raise ConfigError(
                "the phase profiler samples with SIGPROF, whose handler "
                "only the main thread runs; profile from the main thread"
            )
        self._runtime = runtime
        runtime._prof = self
        for obj, attr, phase in _phase_sites(runtime):
            code = getattr(getattr(obj, attr, None), "__code__", None)
            if code is not None:
                self._code_phases[code] = phase
        self._last = time.perf_counter()
        handler = signal.signal(signal.SIGPROF, self._on_sample)
        timer = signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        self._saved = (handler, timer)
        return self

    def _on_sample(self, signum, frame) -> None:
        """``SIGPROF`` handler: fold the interrupted stack, charging it
        the wall since the previous sample."""
        now = time.perf_counter()
        self._fold_sample(frame, now - self._last)
        self._last = now

    def _fold_sample(self, frame, dt: float) -> None:
        """Charge ``dt`` seconds to the innermost phase on ``frame``'s
        stack.

        The walk goes innermost-out, maps code objects to phases, and
        folds adjacent duplicates (a phase calling itself, or two sites
        of one phase).  A stack with no matching frame is left
        unattributed: it counts against :attr:`coverage`, which is the
        honest outcome for time spent outside the runtime.
        """
        code_phases = self._code_phases
        phases: list[str] = []  # innermost-first
        while frame is not None:
            phase = code_phases.get(frame.f_code)
            if phase is not None and (not phases or phases[-1] != phase):
                phases.append(phase)
            frame = frame.f_back
        if not phases:
            return
        leaf = phases[0]
        self.self_s[leaf] += dt
        self.stacks[";".join(reversed(phases))] += dt
        self.calls[leaf] += 1

    def detach(self) -> None:
        """Stop sampling and restore the replaced ``SIGPROF`` handler and
        timer; the profile data stays."""
        if self._saved is not None:
            handler, timer = self._saved
            signal.setitimer(signal.ITIMER_PROF, *timer)
            signal.signal(signal.SIGPROF, signal.SIG_DFL if handler is None else handler)
            self._saved = None
        if self._runtime is not None:
            self._runtime._prof = None
            self._runtime = None

    # ------------------------------------------------------------------
    # driving a replay
    # ------------------------------------------------------------------
    @contextmanager
    def _measure(self, runtime) -> Iterator["PhaseProfiler"]:
        """Attach for the body, then add its wall time and accesses."""
        self.attach(runtime)
        accesses0 = runtime.stats.coalesced_accesses
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.wall_s += time.perf_counter() - t0
            self.accesses += runtime.stats.coalesced_accesses - accesses0
            self.detach()

    def run(self, runtime, trace: Iterable) -> "object":
        """Replay ``trace`` through ``runtime.run`` under the profiler;
        returns the runtime's :class:`RunResult`."""
        with self._measure(runtime):
            return runtime.run(trace)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def attributed_s(self) -> float:
        """Seconds attributed to named phases (sum of self-times)."""
        return sum(self.self_s.values())

    @property
    def coverage(self) -> float:
        """Fraction of the replay wall attributed to named phases."""
        if self.wall_s <= 0:
            return 0.0
        return min(1.0, self.attributed_s / self.wall_s)

    @property
    def accesses_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.accesses / self.wall_s

    def report(self) -> dict:
        """JSON-ready profile document (the ``gmt-prof --json-out`` body
        and the ``--compare`` input)."""
        return {
            "version": PROFILE_VERSION,
            "mode": "sampled",
            "interval_s": self.interval,
            "wall_s": self.wall_s,
            "accesses": self.accesses,
            "accesses_per_sec": self.accesses_per_sec,
            "attributed_s": self.attributed_s,
            "coverage": self.coverage,
            "phases": {
                name: {"self_s": self.self_s.get(name, 0.0), "calls": self.calls.get(name, 0)}
                for name in sorted(self.self_s, key=_phase_order)
            },
            "stacks": dict(sorted(self.stacks.items())),
        }

    def format_top(self, limit: int | None = None) -> str:
        return format_top(self.report(), limit=limit)

    def collapsed_lines(self) -> list[str]:
        return collapsed_lines(self.report())

    def write_collapsed(self, path: str) -> int:
        """Write collapsed-stack lines (flamegraph.pl / speedscope input);
        returns the line count."""
        lines = self.collapsed_lines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        return len(lines)


def _phase_sites(runtime):
    """Yield ``(obj, attr, phase)`` phase-boundary sites of ``runtime``.

    A site whose attribute ``obj`` lacks is skipped.
    """
    from repro.core import vector

    # A workload's columns, their jitter and their flattening all run
    # inside materialize_trace; a plain warp iterable is pulled and
    # flattened inside _iter_trace_chunks.
    yield vector, "materialize_trace", "trace-gen"
    yield vector, "_iter_trace_chunks", "trace-gen"
    yield runtime, "access_warp", "dispatch"
    yield runtime, "_replay_flat", "dispatch"
    yield runtime, "access", "access"
    yield runtime, "_batch_hits", "access"
    yield runtime.page_table, "lookup", "page-table"
    yield runtime.vts, "observe_access", "reuse-policy"
    for name in ("on_access", "choose", "on_tier1_fill", "on_evicted"):
        yield runtime.policy, name, "reuse-policy"
    for selector in (runtime.t1_clock, runtime._t2_order):
        yield selector, "select_victim", "victim-select"
        yield selector, "select_victim_where", "victim-select"
    yield runtime, "_ensure_tier1_frame", "eviction"
    yield runtime, "_evict_from_tier2", "eviction"
    yield runtime, "_writeback_if_dirty", "writeback"
    yield runtime, "_prefetch_after", "prefetch"
    yield runtime.ssd, "record_read", "device-model"
    yield runtime.ssd, "record_write", "device-model"
    yield runtime.pcie, "record_h2d", "device-model"
    yield runtime.pcie, "record_d2h", "device-model"
    queueing = runtime._queueing_model()
    if queueing is not None:
        for name in ("on_hit", "on_hits", "on_miss", "on_background_io", "on_background_pcie"):
            yield queueing, name, "device-model"
    if runtime._obs is not None:
        for name in ("tick", "span", "instant", "on_miss"):
            yield runtime._obs, name, "stats-obs"
    if runtime._flight is not None:
        yield runtime._flight, "emit", "stats-obs"


def _phase_order(name: str):
    try:
        return (0, PHASES.index(name))
    except ValueError:
        return (1, name)


@contextmanager
def profile(runtime) -> Iterator[PhaseProfiler]:
    """Context manager: profile arbitrary driving of ``runtime``.

    >>> with profile(runtime) as prof:
    ...     runtime.run(workload)
    >>> print(prof.format_top())

    Work the body does outside the runtime's phase sites, such as
    building warps for ``access_warp`` itself, shows up as unattributed
    wall; prefer :func:`profile_replay` for full replays.
    """
    prof = PhaseProfiler()
    with prof._measure(runtime):
        yield prof


def profile_replay(runtime, workload, profiler: PhaseProfiler | None = None):
    """Replay ``workload`` through ``runtime`` under a profiler.

    Returns ``(profiler, run_result)``.
    """
    prof = profiler if profiler is not None else PhaseProfiler()
    result = prof.run(runtime, workload)
    return prof, result


# ----------------------------------------------------------------------
# report rendering / diffing (pure functions over profile documents)
# ----------------------------------------------------------------------
def format_top(doc: dict, limit: int | None = None) -> str:
    """Per-phase top table of a profile document."""
    from repro.analysis.report import render_table

    wall = doc.get("wall_s", 0.0)
    phases = doc.get("phases", {})
    ordered = sorted(phases.items(), key=lambda kv: -kv[1]["self_s"])
    if limit is not None:
        ordered = ordered[:limit]
    rows = [
        [
            name,
            f"{rec['self_s'] * 1e3:10.2f}",
            f"{rec['self_s'] / wall:7.1%}" if wall > 0 else "-",
            rec["calls"],
        ]
        for name, rec in ordered
    ]
    title = (
        f"phase profile: wall {wall * 1e3:.1f} ms, "
        f"{doc.get('accesses', 0)} accesses, "
        f"{doc.get('accesses_per_sec', 0.0):,.0f} accesses/s, "
        f"{doc.get('coverage', 0.0):.1%} attributed"
    )
    return render_table(["phase", "self ms", "% wall", "samples"], rows, title=title)


def collapsed_lines(doc: dict, scale: float = 1e6) -> list[str]:
    """Collapsed-stack lines (``stack value``) from a profile document.

    Values are exclusive microseconds (integers — the flamegraph toolchain
    expects integer sample counts).
    """
    lines = []
    for stack, seconds in sorted(doc.get("stacks", {}).items()):
        value = round(seconds * scale)
        if value > 0:
            lines.append(f"{stack} {value}")
    return lines


def diff_profiles(before: dict, after: dict) -> str:
    """Human-readable phase-by-phase diff of two profile documents.

    The table shows where wall-clock moved: negative deltas are phases
    the ``after`` profile made cheaper.  The headline reports the
    throughput change — the number a performance change quotes.
    """
    from repro.analysis.report import render_table

    names = sorted(
        set(before.get("phases", {})) | set(after.get("phases", {})),
        key=_phase_order,
    )
    rows = []
    for name in names:
        b = before.get("phases", {}).get(name, {"self_s": 0.0, "calls": 0})
        a = after.get("phases", {}).get(name, {"self_s": 0.0, "calls": 0})
        delta = a["self_s"] - b["self_s"]
        ratio = (a["self_s"] / b["self_s"]) if b["self_s"] > 0 else float("inf")
        rows.append(
            [
                name,
                f"{b['self_s'] * 1e3:10.2f}",
                f"{a['self_s'] * 1e3:10.2f}",
                f"{delta * 1e3:+10.2f}",
                "-" if b["self_s"] <= 0 else f"x{ratio:.2f}",
            ]
        )
    rows.sort(key=lambda r: float(r[3]))
    before_rate = before.get("accesses_per_sec", 0.0)
    after_rate = after.get("accesses_per_sec", 0.0)
    speedup = after_rate / before_rate if before_rate > 0 else float("inf")
    title = (
        f"profile diff: {before_rate:,.0f} -> {after_rate:,.0f} accesses/s "
        f"({speedup:.2f}x throughput)"
    )
    return render_table(["phase", "before ms", "after ms", "delta ms", "ratio"], rows, title=title)


def load_profile(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "phases" not in doc:
        raise SimulationError(f"{path}: not a gmt-prof profile document")
    return doc


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-prof``."""
    from repro import flags

    parser = argparse.ArgumentParser(
        prog="gmt-prof",
        description="Phase-attributed wall-clock profile of one replay",
    )
    parser.add_argument(
        "workload", nargs="?", default=None, help="Table 2 application to replay"
    )
    parser.add_argument(
        "--runtime",
        default="reuse",
        help="runtime kind to profile (default: reuse)",
    )
    flags.add(parser, "--scale", "--oversubscription", "--seed")
    parser.set_defaults(scale=4096)
    parser.add_argument(
        "--interval-ms", type=float, default=1.0, metavar="MS",
        help="sampling period in milliseconds (default 1.0)",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N most expensive phases",
    )
    parser.add_argument(
        "--json-out", type=flags.output_path, metavar="PATH", default=None,
        help="write the profile document (feeds --compare)",
    )
    parser.add_argument(
        "--collapsed-out", type=flags.output_path, metavar="PATH", default=None,
        help="write collapsed stacks (flamegraph.pl / speedscope input)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BEFORE", "AFTER"), default=None,
        help="diff two saved profile documents instead of replaying",
    )
    parser.add_argument(
        "--min-coverage", type=float, default=None, metavar="FRAC",
        help="exit 1 unless at least FRAC of replay wall-clock was "
        "attributed to named phases (CI smoke assertion)",
    )
    args = parser.parse_args(argv)

    if args.compare is not None:
        before, after = (load_profile(p) for p in args.compare)
        print(diff_profiles(before, after))
        return 0
    if args.workload is None:
        parser.error("need a workload to replay (or --compare BEFORE AFTER)")

    from repro.experiments.harness import (
        RUNTIME_KINDS,
        build_runtime,
        default_config,
        get_workload,
    )

    if args.runtime not in RUNTIME_KINDS:
        parser.error(f"unknown runtime {args.runtime!r}; choose from {RUNTIME_KINDS}")
    config = default_config(args.scale)
    workload = get_workload(
        args.workload, config, oversubscription=args.oversubscription, seed=args.seed
    )
    runtime = build_runtime(args.runtime, config)
    profiler = PhaseProfiler(interval=args.interval_ms / 1e3)
    prof, _result = profile_replay(runtime, workload, profiler=profiler)
    print(prof.format_top(limit=args.top))

    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(prof.report(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote profile to {args.json_out}")
    if args.collapsed_out is not None:
        count = prof.write_collapsed(args.collapsed_out)
        print(f"wrote {count} collapsed stacks to {args.collapsed_out}")
    if args.min_coverage is not None and prof.coverage < args.min_coverage:
        print(
            f"gmt-prof: coverage {prof.coverage:.1%} below required "
            f"{args.min_coverage:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    sys.exit(main())
