"""Append-only JSONL run ledger with rolling-median trend detection.

Every ``gmt-bench`` / ``gmt-experiments`` / ``gmt-serve`` invocation
appends one line to ``benchmarks/results/ledger.jsonl`` (override with
``$GMT_LEDGER_PATH``; CLIs take ``--no-ledger``): a timestamp, the tool,
a content hash of its configuration, the code-version salt from
:func:`repro.experiments.engine.code_salt`, host wall time, replay
throughput (accesses/sec), the run's key simulated metrics, and any
anomaly count.  The file is the project's performance memory — a
baseline snapshot (``BENCH_baseline.json``) answers "did this PR
regress?", the ledger answers "has this been slowly regressing for ten
runs?".

Trend detection (``gmt-bench --trend``) is deliberately boring
statistics: for each numeric metric, compare the most recent ``sustain``
runs against the **rolling median** of the runs before them.  Drift is
flagged only when *every* recent run deviates beyond the threshold in
the same direction — a single noisy run (thermal throttle, busy CI box)
can never trip it, and a genuine regression trips it on the second
consecutive bad run.  Entries are compared only against runs with the
same config hash, so changing ``--scale`` starts a fresh trajectory
instead of fake drift.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

from repro.errors import ConfigError

LEDGER_VERSION = 1

#: Default on-repo location; every tool shares one file (the ``tool``
#: field keeps trajectories separate).
DEFAULT_LEDGER_PATH = os.path.join("benchmarks", "results", "ledger.jsonl")

#: Environment override — tests point this at a tmp dir so suite runs
#: never pollute the committed ledger.
LEDGER_ENV_VAR = "GMT_LEDGER_PATH"


def ledger_path(path: str | None = None) -> str:
    """Resolve the ledger location: explicit > ``$GMT_LEDGER_PATH`` > default."""
    if path is not None:
        return path
    return os.environ.get(LEDGER_ENV_VAR) or DEFAULT_LEDGER_PATH


def config_hash(params: dict) -> str:
    """Short content hash of a run's configuration dict.

    Trend analysis only compares runs with equal hashes, so anything
    that changes the workload (scale, seed, cell matrix, tenant mix)
    belongs in ``params``.
    """
    encoded = json.dumps(params, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


def make_entry(
    tool: str,
    *,
    wall_s: float,
    params: dict | None = None,
    accesses_per_sec: float | None = None,
    metrics: dict | None = None,
    anomalies: int = 0,
    salt: str | None = None,
) -> dict:
    """Build one ledger entry (JSON-ready, not yet written).

    Older entries may also carry an ``engine`` label.  Readers ignore it
    and it is not part of ``config_hash``, so older and newer entries of
    one configuration trend as one trajectory.
    """
    if not tool:
        raise ConfigError("ledger entries need a tool name")
    if salt is None:
        from repro.experiments.engine import code_salt

        salt = code_salt()
    return {
        "version": LEDGER_VERSION,
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "tool": tool,
        "code_salt": salt,
        "config_hash": config_hash(params or {}),
        "wall_s": float(wall_s),
        "accesses_per_sec": (
            float(accesses_per_sec) if accesses_per_sec is not None else None
        ),
        "metrics": {k: float(v) for k, v in (metrics or {}).items()},
        "anomalies": int(anomalies),
    }


def append_entry(entry: dict, path: str | None = None) -> str:
    """Append one entry to the ledger (creating parents); returns the path."""
    target = ledger_path(path)
    parent = os.path.dirname(target)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(target, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return target


def record_run(
    tool: str,
    *,
    wall_s: float,
    params: dict | None = None,
    accesses_per_sec: float | None = None,
    metrics: dict | None = None,
    anomalies: int = 0,
    path: str | None = None,
) -> dict:
    """Build and append one entry in one call; returns the entry."""
    entry = make_entry(
        tool,
        wall_s=wall_s,
        params=params,
        accesses_per_sec=accesses_per_sec,
        metrics=metrics,
        anomalies=anomalies,
    )
    append_entry(entry, path)
    return entry


def read_ledger(
    path: str | None = None,
    tool: str | None = None,
    config: str | None = None,
) -> list[dict]:
    """All ledger entries, oldest first (empty when the file is absent).

    Malformed lines are skipped — an interrupted append must never make
    the whole history unreadable.  ``tool``/``config`` filter by the
    entry's tool name and config hash.
    """
    target = ledger_path(path)
    entries: list[dict] = []
    try:
        with open(target, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(entry, dict) or "tool" not in entry:
                    continue
                if tool is not None and entry.get("tool") != tool:
                    continue
                if config is not None and entry.get("config_hash") != config:
                    continue
                entries.append(entry)
    except FileNotFoundError:
        return []
    return entries


# ----------------------------------------------------------------------
# trend detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Drift:
    """One metric's sustained departure from its rolling median.

    Attributes:
        metric: the entry key (``wall_s``, ``accesses_per_sec``, or a
            ``metrics.*`` name).
        median: rolling median of the baseline runs.
        latest: the most recent run's value.
        rel_delta: ``(latest - median) / median`` (signed).
        sustain: how many consecutive recent runs deviated.
    """

    metric: str
    median: float
    latest: float
    rel_delta: float
    sustain: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        direction = "up" if self.rel_delta > 0 else "down"
        return (
            f"{self.metric}: {direction} {abs(self.rel_delta):.1%} vs rolling "
            f"median {self.median:g} (last {self.sustain} runs, latest {self.latest:g})"
        )


def _metric_series(entries: list[dict], metric: str) -> list[float]:
    values: list[float] = []
    for entry in entries:
        if metric in ("wall_s", "accesses_per_sec", "anomalies"):
            value = entry.get(metric)
        else:
            value = entry.get("metrics", {}).get(metric)
        if value is None:
            continue
        values.append(float(value))
    return values


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def detect_drift(
    values: list[float],
    window: int = 8,
    threshold: float = 0.25,
    sustain: int = 2,
) -> tuple[float, float] | None:
    """Sustained drift in a value series (None = steady).

    The last ``sustain`` values are each compared against the median of
    the up-to-``window`` values preceding them.  Drift requires *all* of
    them beyond ``threshold`` relative deviation in the *same*
    direction.  Returns ``(median, latest)`` when drifting.  Needs at
    least ``sustain + 1`` values — with fewer there is no baseline yet.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    if threshold <= 0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    if sustain < 1:
        raise ConfigError(f"sustain must be >= 1, got {sustain}")
    if len(values) < sustain + 1:
        return None
    baseline = values[:-sustain][-window:]
    if not baseline:
        return None
    median = _median(baseline)
    recent = values[-sustain:]
    scale = max(abs(median), 1e-12)
    deltas = [(v - median) / scale for v in recent]
    if all(d > threshold for d in deltas) or all(d < -threshold for d in deltas):
        return (median, recent[-1])
    return None


def scan_trend(
    entries: list[dict],
    metrics: tuple[str, ...] = ("wall_s", "accesses_per_sec"),
    window: int = 8,
    threshold: float = 0.25,
    sustain: int = 2,
) -> list[Drift]:
    """Drift findings across ``metrics`` over ``entries`` (one tool's runs)."""
    drifts: list[Drift] = []
    for metric in metrics:
        series = _metric_series(entries, metric)
        hit = detect_drift(series, window=window, threshold=threshold, sustain=sustain)
        if hit is None:
            continue
        median, latest = hit
        drifts.append(
            Drift(
                metric=metric,
                median=median,
                latest=latest,
                rel_delta=(latest - median) / max(abs(median), 1e-12),
                sustain=sustain,
            )
        )
    return drifts


def format_trend(
    entries: list[dict],
    metrics: tuple[str, ...] = ("wall_s", "accesses_per_sec"),
    window: int = 8,
    threshold: float = 0.25,
    sustain: int = 2,
    tail: int = 10,
) -> tuple[str, list[Drift]]:
    """Human trend report over one tool's entries + the drift findings.

    Shows the last ``tail`` runs' trajectory for each metric and a
    verdict line per metric (steady / drifting).
    """
    if not entries:
        return ("ledger is empty — record some runs first", [])
    drifts = scan_trend(
        entries, metrics=metrics, window=window, threshold=threshold, sustain=sustain
    )
    drifting = {d.metric: d for d in drifts}
    lines = [
        f"{len(entries)} run(s) on ledger for {entries[-1].get('tool', '?')} "
        f"(config {entries[-1].get('config_hash', '?')}, "
        f"code {entries[-1].get('code_salt', '?')})"
    ]
    for metric in metrics:
        series = _metric_series(entries, metric)
        if not series:
            continue
        recent = series[-tail:]
        trajectory = " -> ".join(f"{v:g}" for v in recent)
        lines.append(f"  {metric}: {trajectory}")
        if metric in drifting:
            lines.append(f"    DRIFT: {drifting[metric]}")
        else:
            baseline = series[:-sustain][-window:]
            if baseline:
                lines.append(
                    f"    steady (rolling median {_median(baseline):g}, "
                    f"latest {series[-1]:g})"
                )
            else:
                lines.append(
                    f"    {len(series)} run(s) — need {sustain + 1} for drift detection"
                )
    return ("\n".join(lines), drifts)
