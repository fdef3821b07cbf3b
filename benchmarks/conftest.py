"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables/figures through the
experiment modules, asserts its headline *shape* properties, prints the
rows (visible with ``pytest -s`` or in the saved artifacts), and writes
them to ``benchmarks/results/<name>.txt``.

Scale is controlled with ``GMT_BENCH_SCALE`` (byte-scale divisor vs the
paper's platform; default 256 — see DESIGN.md section 5).  Runs within a
session share the experiment engine's process-wide memo, so the four
figures built on the default geometry pay for its 36 runs once.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> int:
    return int(os.environ.get("GMT_BENCH_SCALE", "256"))


@pytest.fixture(scope="session")
def scale() -> int:
    return bench_scale()


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(results) -> str:
        text = "\n\n".join(r.to_text() for r in results)
        name = results[0].name
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
        return text

    return _save
