"""One definition for every command-line flag that two or more tools take.

A ``gmt-*`` tool declares the shared flags it accepts with :func:`add`
and parses with :func:`parse`.  A tool whose default differs overrides it
with ``parser.set_defaults`` — the help texts print ``%(default)s``, so
they stay right.  Values are validated while parsing, so bad input is a
usage error (exit status 2) before any replay starts::

    parser = argparse.ArgumentParser(prog="gmt-bench")
    flags.add(parser, "--scale", "--seed", "--no-ledger")
    parser.set_defaults(scale=4096)
    args = flags.parse(parser, argv)
"""

from __future__ import annotations

import argparse
import os

from repro.core.config import DEFAULT_SCALE
from repro.errors import ConfigError
from repro.policyzoo.registry import EVICTION_POLICY_NAMES


def _positive(convert):
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not value > 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive {convert.__name__}, got {text!r}"
            )
        return value

    return parse


positive_int = _positive(int)
positive_float = _positive(float)


def fraction(text: str) -> float:
    """A float in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text!r}")
    return value


def output_path(text: str) -> str:
    """A file to write once the run ends: its directory must exist now,
    so a typo fails before the replay rather than after it."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"directory {directory!r} of {text!r} does not exist"
        )
    return text


#: The anomaly-scan flags, always taken together.
ANOMALY = (
    "--anomaly-scan",
    "--anomaly-window",
    "--anomaly-thrash",
    "--anomaly-bypass",
    "--anomaly-spike",
)

_ALIASES = {"--jobs": ("-j",)}

_FLAGS: dict[str, dict] = {
    "--scale": dict(
        type=positive_int,
        default=DEFAULT_SCALE,
        help="byte-scale divisor vs the paper's platform (default %(default)s)",
    ),
    "--oversubscription": dict(
        type=positive_float,
        default=2.0,
        help="working set / (Tier-1 + Tier-2) capacity (default %(default)s)",
    ),
    "--seed": dict(type=int, default=0, help="trace RNG seed (default %(default)s)"),
    "--trace-out": dict(
        type=output_path,
        metavar="PATH",
        default=None,
        help="write a Chrome/Perfetto trace of the replay to PATH (open "
        "via ui.perfetto.dev; runtimes or tenants get their own lanes)",
    ),
    "--metrics-out": dict(
        type=output_path,
        metavar="PATH",
        default=None,
        help="write a Prometheus text-format metrics snapshot to PATH "
        "(series labelled by runtime or tenant)",
    ),
    "--lifecycle-sample-rate": dict(
        type=fraction,
        metavar="P",
        default=None,
        help="record the lifecycle stream for a deterministic hash-sampled "
        "fraction P of pages (0 < P <= 1) instead of every page; sampled "
        "pages keep their complete journeys, so the stream stays small "
        "without truncating any of them",
    ),
    "--check-every": dict(
        type=positive_int,
        metavar="N",
        default=None,
        help="run the conformance audit (structural invariants + stats "
        "identities, see gmt-check) every N coalesced accesses of each "
        "replay; a violation fails the run (default: off)",
    ),
    "--anomaly-scan": dict(
        action="store_true",
        help="scan each replay's windowed telemetry for thrash / bypass "
        "storms / latency spikes and report the findings (attaches "
        "windowed telemetry if nothing else asked for it; only replays "
        "that actually run are scanned)",
    ),
    "--anomaly-window": dict(
        type=positive_int,
        metavar="N",
        default=2_000,
        help="snapshot interval (coalesced accesses) of the --anomaly-scan "
        "windows (default %(default)s)",
    ),
    "--anomaly-thrash": dict(
        type=float,
        metavar="X",
        default=0.5,
        help="flag a window when Tier-1 evictions per access reach X "
        "(default %(default)s)",
    ),
    "--anomaly-bypass": dict(
        type=float,
        metavar="X",
        default=0.75,
        help="flag a window when the fraction of Tier-1 evictions that "
        "bypassed Tier-2 reaches X (default %(default)s)",
    ),
    "--anomaly-spike": dict(
        type=float,
        metavar="X",
        default=3.0,
        help="flag a window whose mean fault latency exceeds X times the "
        "trailing mean (default %(default)s)",
    ),
    "--no-ledger": dict(
        action="store_true",
        help="do not append this run to the run ledger "
        "(benchmarks/results/ledger.jsonl or $GMT_LEDGER_PATH)",
    ),
    "--jobs": dict(
        type=positive_int,
        default=1,
        help="worker processes for cell execution (default %(default)s = serial)",
    ),
    "--cache-dir": dict(
        metavar="DIR",
        default=None,
        help="on-disk result cache location (default ~/.cache/gmt-results, "
        "or $GMT_CACHE_DIR)",
    ),
    "--no-cache": dict(
        action="store_true",
        help="disable the on-disk result cache for this run",
    ),
    "--tier1-policy": dict(
        default=None,
        choices=list(EVICTION_POLICY_NAMES),
        help="eviction policy at Tier-1 for every runtime or tenant "
        "(default: clock)",
    ),
    "--tier2-policy": dict(
        default=None,
        choices=list(EVICTION_POLICY_NAMES),
        help="eviction policy at Tier-2 for every runtime or tenant "
        "(default: the placement policy's historical order — clock or fifo)",
    ),
}


def add(parser: argparse.ArgumentParser, *names: str) -> None:
    """Declare the shared flags ``names`` (e.g. ``"--scale"``) on ``parser``."""
    for name in names:
        parser.add_argument(name, *_ALIASES.get(name, ()), **_FLAGS[name])


def anomaly_detector(args: argparse.Namespace):
    """The :class:`~repro.obs.anomaly.AnomalyDetector` the parsed
    ``--anomaly-*`` thresholds describe (its constructor validates them)."""
    from repro.obs.anomaly import AnomalyDetector

    return AnomalyDetector(
        thrash_evictions_per_access=args.anomaly_thrash,
        bypass_fraction=args.anomaly_bypass,
        latency_spike_factor=args.anomaly_spike,
    )


def parse(
    parser: argparse.ArgumentParser, argv: list[str] | None = None
) -> argparse.Namespace:
    """``parser.parse_args(argv)`` plus the checks that span several
    flags: with ``--anomaly-scan``, bad thresholds are usage errors."""
    args = parser.parse_args(argv)
    if getattr(args, "anomaly_scan", False):
        try:
            anomaly_detector(args)
        except ConfigError as exc:
            parser.error(f"bad --anomaly-* threshold: {exc}")
    return args
