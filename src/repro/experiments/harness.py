"""Shared experiment machinery: configs, runtimes, cells, result containers.

The paper's evaluation replays each application through four runtimes
(BaM, GMT-TierOrder, GMT-Random, GMT-Reuse) and, for Figure 14, HMM.
The cell bodies below perform those replays under the installed
:class:`RunOptions`; the :class:`~repro.experiments.engine.Engine`
memoises and caches their results, so every figure built on the same
geometry reuses the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.report import render_table
from repro.baselines.bam import BamRuntime
from repro.baselines.hmm import HmmRuntime
from repro.core.config import DEFAULT_SCALE, GMTConfig, PAPER_OVERSUBSCRIPTION
from repro.core.runtime import GMTRuntime, RunResult
from repro.errors import ConfigError
from repro.workloads.registry import make_workload, normalize_name
from repro.workloads.trace import Workload

#: Runtime kinds accepted by :func:`build_runtime`.
RUNTIME_KINDS = ("bam", "tier-order", "random", "reuse", "hmm", "dragon")

#: Display names matching the paper's figures.
RUNTIME_LABELS = {
    "bam": "BaM",
    "tier-order": "GMT-TierOrder",
    "random": "GMT-Random",
    "reuse": "GMT-Reuse",
    "hmm": "HMM",
    "dragon": "Dragon",
}

_workload_cache: dict[tuple, Workload] = {}


@dataclass(frozen=True)
class RunOptions:
    """How replays run: in-run audits, telemetry export, anomaly scan.

    An :class:`~repro.experiments.engine.Engine` installs its options for
    the cells it executes and restores the previous ones afterwards; the
    cell bodies read the installed value.  None of these settings
    changes a result: they steer what each replay records.  Cached cells
    are reused as-is, so only replays that actually execute export
    telemetry or findings.

    Attributes:
        check_every: audit each replay every N coalesced accesses with
            :func:`repro.check.identities.assert_conformant`; a violation
            aborts the replay with
            :class:`~repro.errors.ConformanceError` (None: off).
        telemetry_dir: each replay writes ``<app>-<kind>.trace.json``
            (Perfetto), ``<app>-<kind>.prom`` (Prometheus text) and, when
            windows were cut, ``<app>-<kind>.windows.jsonl`` here.
        telemetry_lifecycle: also run the page-lifecycle flight recorder
            and write ``<app>-<kind>.lifecycle.jsonl`` (feed it to
            ``gmt-why --from``); needs ``telemetry_dir``.
        anomaly_spool: scan each replay's window stream (interval
            ``anomaly_window``) for thrash / bypass-storm / latency-spike
            anomalies with the three thresholds, and append one JSON line
            per finding to ``<anomaly_spool>/<pid>.anomalies.jsonl``.  The
            files are per process, so pool workers and the serial path
            share one directory (None: off).
    """

    check_every: int | None = None
    telemetry_dir: str | None = None
    telemetry_lifecycle: bool = False
    anomaly_spool: str | None = None
    anomaly_window: int = 10_000
    anomaly_thrash: float = 0.5
    anomaly_bypass: float = 0.75
    anomaly_spike: float = 3.0

    def __post_init__(self) -> None:
        if self.check_every is not None and self.check_every < 1:
            raise ConfigError(f"check_every must be >= 1, got {self.check_every}")
        if self.telemetry_lifecycle and self.telemetry_dir is None:
            raise ConfigError("telemetry_lifecycle needs a telemetry_dir")
        if self.anomaly_spool is not None:
            if self.anomaly_window < 1:
                raise ConfigError(
                    f"anomaly window must be >= 1, got {self.anomaly_window}"
                )
            self.detector()

    def detector(self):
        """The scan's :class:`~repro.obs.anomaly.AnomalyDetector` (its
        constructor validates the thresholds)."""
        from repro.obs.anomaly import AnomalyDetector

        return AnomalyDetector(
            thrash_evictions_per_access=self.anomaly_thrash,
            bypass_fraction=self.anomaly_bypass,
            latency_spike_factor=self.anomaly_spike,
        )


_options = RunOptions()


def install_options(options: RunOptions) -> RunOptions:
    """Install ``options`` for the cells this process executes next and
    return the previous ones.  :class:`~repro.experiments.engine.Engine`
    calls it around its cells and as its pool workers' initializer."""
    global _options
    previous, _options = _options, options
    return previous


def run_options() -> RunOptions:
    """The installed :class:`RunOptions`."""
    return _options


def _apply_runtime_checks(runtime: GMTRuntime) -> GMTRuntime:
    if _options.check_every is not None:
        runtime.enable_periodic_checks(_options.check_every)
    return runtime


def _with_footprint_bound(config: GMTConfig, workload: Workload) -> GMTConfig:
    """Tell the prefetcher where the workload's address space ends."""
    if config.prefetch_degree > 0 and config.footprint_pages is None:
        return replace(config, footprint_pages=workload.footprint_pages)
    return config


def _attach_run_telemetry(runtime: GMTRuntime, app: str, kind: str):
    options = _options
    if options.telemetry_dir is None and options.anomaly_spool is None:
        return None
    from repro.obs import Telemetry

    telemetry = Telemetry(
        labels={"app": normalize_name(app), "kind": kind},
        lifecycle=options.telemetry_lifecycle,
        window=options.anomaly_window if options.anomaly_spool is not None else 10_000,
    )
    runtime.attach_telemetry(telemetry)
    return telemetry


def _spool_anomalies(telemetry, app: str, kind: str) -> None:
    import json
    import os

    findings = _options.detector().scan_and_annotate(telemetry)
    if not findings:
        return
    os.makedirs(_options.anomaly_spool, exist_ok=True)
    path = os.path.join(_options.anomaly_spool, f"{os.getpid()}.anomalies.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        for finding in findings:
            fh.write(
                json.dumps(
                    {
                        "app": normalize_name(app),
                        "kind": kind,
                        "rule": finding.rule,
                        "window": finding.window,
                        "position": finding.position,
                        "value": finding.value,
                        "threshold": finding.threshold,
                        "message": str(finding),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def _export_run_telemetry(telemetry, app: str, kind: str) -> None:
    import os

    from repro.obs.export import write_chrome_trace, write_jsonl, write_prometheus

    os.makedirs(_options.telemetry_dir, exist_ok=True)
    stem = os.path.join(_options.telemetry_dir, f"{normalize_name(app)}-{kind}")
    write_chrome_trace(f"{stem}.trace.json", {telemetry.name: telemetry.tracer})
    write_prometheus(f"{stem}.prom", telemetry.registry)
    windows = telemetry.windows()
    if windows:
        write_jsonl(f"{stem}.windows.jsonl", windows)
    if telemetry.lifecycle is not None and len(telemetry.lifecycle):
        from repro.obs.lifecycle import write_lifecycle_jsonl

        write_lifecycle_jsonl(
            f"{stem}.lifecycle.jsonl",
            telemetry.lifecycle.events(),
            extra={"app": normalize_name(app), "runtime": kind},
        )


@dataclass
class ExperimentResult:
    """A regenerated table/figure: headers + rows + free-form notes."""

    name: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = field(default_factory=list)
    #: Free-form side data for tests (means, per-app series, ...).
    extras: dict[str, object] = field(default_factory=dict)

    def to_text(self) -> str:
        text = render_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return text

    def to_csv(self) -> str:
        """Comma-separated rendering (header row first)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def to_json(self) -> str:
        """JSON rendering: name/title/headers/rows/notes (extras omitted —
        they may hold non-serialisable analysis objects)."""
        import json

        return json.dumps(
            {
                "name": self.name,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
            },
            default=str,
        )


def default_config(scale: int = DEFAULT_SCALE, **overrides) -> GMTConfig:
    """The section 3.1 geometry at ``1/scale`` bytes, with a sampling
    window proportional to the scaled Tier-1 size."""
    config = GMTConfig.paper_default(scale=scale, **overrides)
    sample_target = max(1_000, config.tier1_frames * 20)
    return replace(
        config,
        sample_target=sample_target,
        sample_batch=max(100, sample_target // 10),
    )


def build_runtime(kind: str, config: GMTConfig) -> GMTRuntime:
    """Instantiate one of the comparison runtimes over ``config``."""
    if kind == "bam":
        runtime_cls: type[GMTRuntime] = BamRuntime
    elif kind == "hmm":
        runtime_cls = HmmRuntime
    elif kind == "dragon":
        from repro.baselines.dragon import DragonRuntime

        runtime_cls = DragonRuntime
    elif kind in ("tier-order", "random", "reuse", "dueling"):
        runtime_cls = GMTRuntime
        config = config.with_policy(kind)
    else:
        raise ConfigError(
            f"unknown runtime kind {kind!r}; expected one of {RUNTIME_KINDS}"
        )
    return runtime_cls(config)


def get_workload(
    app: str,
    config: GMTConfig | int,
    oversubscription: float = PAPER_OVERSUBSCRIPTION,
    seed: int = 0,
    **kwargs,
) -> Workload:
    """Cached workload instance (graph generation is the expensive part).

    ``config`` sizes the footprint as in
    :func:`~repro.workloads.registry.make_workload`: a :class:`GMTConfig`
    (``oversubscription`` x its Tier-1 + Tier-2 frames) or a raw page
    count."""
    if isinstance(config, GMTConfig):
        footprint = config.working_set_frames(oversubscription)
    else:
        footprint = int(config)
    key = (normalize_name(app), footprint, seed, tuple(sorted(kwargs.items())))
    workload = _workload_cache.get(key)
    if workload is None:
        workload = make_workload(app, footprint, seed=seed, **kwargs)
        _workload_cache[key] = workload
    return workload


def clear_caches() -> None:
    """Drop cached workloads and the engine memo (test isolation)."""
    from repro.experiments.engine import clear_memo

    _workload_cache.clear()
    clear_memo()


# ----------------------------------------------------------------------
# Engine cells: the canonical cell builders every experiment spec uses.
# Building cells through these helpers (rather than Cell.make directly)
# normalises the parameters, so overlapping sweeps — fig8/fig9/fig10/
# fig14 share most of their replay matrix — collapse onto identical
# cache keys.
# ----------------------------------------------------------------------
def replay_cell(
    app: str,
    kind: str,
    config: GMTConfig,
    oversubscription: float = PAPER_OVERSUBSCRIPTION,
    seed: int = 0,
    footprint_pages: int | None = None,
    trace_config: GMTConfig | None = None,
) -> RunResult:
    """Cell body: replay ``app`` through runtime ``kind`` under the
    installed :class:`RunOptions`.

    The workload's footprint is ``footprint_pages`` when given, else
    sized from ``trace_config`` (default: ``config``) as Tier-1 + Tier-2
    frames x oversubscription — even for BaM, which then runs it with
    Tier-2 disabled, exactly the paper's setup.  Sweeps that vary the
    hierarchy while holding the dataset fixed pin one of the two
    (Figure 12's Tier-2:Tier-1 ratios, SSD scaling, ``sweep_config``).
    """
    sizing = footprint_pages if footprint_pages is not None else trace_config or config
    workload = get_workload(app, sizing, oversubscription, seed=seed)
    runtime = build_runtime(kind, _with_footprint_bound(config, workload))
    _apply_runtime_checks(runtime)
    telemetry = _attach_run_telemetry(runtime, app, kind)
    result = runtime.run(workload)
    if telemetry is not None:
        if _options.anomaly_spool is not None:
            _spool_anomalies(telemetry, app, kind)
        if _options.telemetry_dir is not None:
            _export_run_telemetry(telemetry, app, kind)
    return result


def oracle_cell(
    app: str,
    config: GMTConfig,
    oversubscription: float = PAPER_OVERSUBSCRIPTION,
    seed: int = 0,
) -> RunResult:
    """Cell body: the Belady-style perfect-prediction upper bound."""
    from repro.core.oracle import run_with_oracle

    workload = get_workload(app, config, oversubscription, seed=seed)
    return run_with_oracle(config, workload)


def replay(
    app: str,
    kind: str,
    config: GMTConfig,
    oversubscription: float = PAPER_OVERSUBSCRIPTION,
    seed: int = 0,
    footprint_pages: int | None = None,
    trace_config: GMTConfig | None = None,
):
    """The canonical replay :class:`~repro.experiments.engine.Cell`;
    ``footprint_pages`` or ``trace_config`` pins the dataset while
    ``config`` varies (see :func:`replay_cell`)."""
    from repro.experiments.engine import Cell

    if footprint_pages is not None and trace_config is not None:
        raise ConfigError("pin the dataset by footprint_pages or trace_config")
    app = normalize_name(app)
    label = f"{app}/{kind}"
    pinned = {}
    if footprint_pages is not None:
        pinned["footprint_pages"] = int(footprint_pages)
        label += f"@{footprint_pages}p"
    if trace_config is not None:
        pinned["trace_config"] = trace_config
        label += "(fixed-trace)"
    return Cell.make(
        "repro.experiments.harness:replay_cell",
        label=label,
        app=app,
        kind=kind,
        config=config,
        oversubscription=float(oversubscription),
        seed=int(seed),
        **pinned,
    )


def oracle_replay(
    app: str,
    config: GMTConfig,
    oversubscription: float = PAPER_OVERSUBSCRIPTION,
    seed: int = 0,
):
    """Oracle (perfect-prediction) replay cell."""
    from repro.experiments.engine import Cell

    app = normalize_name(app)
    return Cell.make(
        "repro.experiments.harness:oracle_cell",
        label=f"{app}/oracle",
        app=app,
        config=config,
        oversubscription=float(oversubscription),
        seed=int(seed),
    )


def app_label(app: str) -> str:
    """Table 2 capitalisation for a registry key."""
    from repro.workloads.registry import workload_class

    return workload_class(app).name
