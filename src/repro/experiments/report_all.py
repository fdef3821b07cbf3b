"""Generate the full paper-vs-measured report in one call.

``generate_report`` runs every experiment (all tables/figures plus the
extension studies), renders them into a single markdown document with the
configuration header, and optionally writes it to disk — the artifact you
attach to a reproduction claim:

>>> from repro.experiments.report_all import generate_report
>>> text = generate_report(scale=256, path="report.md")

or from the shell::

    python -m repro.experiments all          # tables to stdout
    gmt-report --scale 256 -o report.md      # one markdown document
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.config import DEFAULT_SCALE
from repro.experiments.engine import Engine, ResultCache
from repro.experiments.harness import default_config
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.units import format_bytes


def _header(scale: int) -> str:
    config = default_config(scale)
    platform = config.platform
    lines = [
        "# GMT reproduction report",
        "",
        f"- byte scale: 1/{scale} of the paper's platform",
        f"- Tier-1: {config.tier1_frames} frames "
        f"({format_bytes(config.tier1_frames * config.page_size)})",
        f"- Tier-2: {config.tier2_frames} frames "
        f"({format_bytes(config.tier2_frames * config.page_size)})",
        f"- working set (oversubscription 2): "
        f"{config.working_set_frames()} pages",
        f"- SSD: {platform.ssd_read_latency_ns / 1e3:.0f} us read latency, "
        f"{format_bytes(platform.ssd_read_bandwidth)}/s",
        f"- host fetch: {platform.host_fetch_latency_ns / 1e3:.0f} us; "
        f"Tier-2 lookup: {platform.tier2_lookup_ns:.0f} ns",
        "",
        "Shape-fidelity reproduction; see EXPERIMENTS.md for the",
        "paper-vs-measured discussion and known deviations.",
        "",
    ]
    return "\n".join(lines)


def generate_report(
    scale: int = DEFAULT_SCALE,
    path: str | Path | None = None,
    experiments: tuple[str, ...] | None = None,
    engine: Engine | None = None,
) -> str:
    """Run ``experiments`` (default: all) and return the markdown report.

    Writes to ``path`` when given.  Results are cached per process (and,
    when ``engine`` carries a :class:`ResultCache`, on disk), so a
    report after a benchmark session is nearly free.
    """
    names = experiments if experiments is not None else EXPERIMENTS
    sections = [_header(scale)]
    for name in names:
        start = time.time()
        results = run_experiment(name, scale, engine=engine)
        body = "\n\n".join(f"```\n{r.to_text()}\n```" for r in results)
        sections.append(
            f"## {name}\n\n{body}\n\n*regenerated in {time.time() - start:.1f}s*\n"
        )
    text = "\n".join(sections)
    if path is not None:
        Path(path).write_text(text)
    return text


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``gmt-report``."""
    import argparse

    from repro import flags

    parser = argparse.ArgumentParser(
        prog="gmt-report", description="Generate the full reproduction report"
    )
    flags.add(parser, "--scale")
    parser.add_argument("-o", "--output", default=None, help="write markdown here")
    parser.add_argument(
        "--experiments",
        nargs="*",
        default=None,
        help=f"subset to run (default all: {', '.join(EXPERIMENTS)})",
    )
    flags.add(parser, "--jobs", "--no-cache", "--cache-dir")
    args = parser.parse_args(argv)
    engine = Engine(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
    )
    text = generate_report(
        scale=args.scale,
        path=args.output,
        experiments=tuple(args.experiments) if args.experiments else None,
        engine=engine,
    )
    if args.output is None:
        print(text)
    else:
        print(f"report written to {args.output}")
    return 0
