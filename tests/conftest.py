"""Shared fixtures: tiny configs and traces that keep tests fast."""

from __future__ import annotations

import random

import pytest

from repro.core.config import GMTConfig
from repro.experiments import harness
from repro.sim.gpu import WarpAccess


@pytest.fixture(autouse=True)
def _clear_harness_caches():
    """Experiment caches are process-global; isolate tests from each other."""
    harness.clear_caches()
    yield
    harness.clear_caches()


@pytest.fixture(autouse=True)
def _isolate_run_ledger(tmp_path, monkeypatch):
    """CLI mains append to the run ledger; never let tests touch the
    committed benchmarks/results/ledger.jsonl."""
    from repro.obs.ledger import LEDGER_ENV_VAR

    monkeypatch.setenv(LEDGER_ENV_VAR, str(tmp_path / "ledger.jsonl"))


@pytest.fixture(autouse=True)
def _isolate_result_cache(tmp_path, monkeypatch):
    """CLI mains default to the on-disk result cache; never let tests
    fill the user's (~/.cache/gmt-results) or replay from it."""
    monkeypatch.setenv("GMT_CACHE_DIR", str(tmp_path / "gmt-results"))


@pytest.fixture
def small_config() -> GMTConfig:
    """A tiny 3-tier geometry (Tier-2 = 4 x Tier-1, as in the paper)."""
    return GMTConfig(
        tier1_frames=16,
        tier2_frames=64,
        sample_target=200,
        sample_batch=50,
        tier3_bias_window=16,
    )


@pytest.fixture
def medium_config() -> GMTConfig:
    """Big enough for policies to differentiate, small enough to be quick."""
    return GMTConfig(
        tier1_frames=64,
        tier2_frames=256,
        sample_target=2_000,
        sample_batch=500,
        tier3_bias_window=32,
    )


def random_trace(
    num_warps: int,
    footprint: int,
    seed: int = 0,
    write_fraction: float = 0.3,
    lanes: int = 2,
) -> list[WarpAccess]:
    """A reproducible random warp trace (uniform page draws)."""
    rng = random.Random(seed)
    trace = []
    for _ in range(num_warps):
        pages = tuple(rng.randrange(footprint) for _ in range(lanes))
        trace.append(WarpAccess(pages=pages, write=rng.random() < write_fraction))
    return trace


def sweep_trace(footprint: int, repeats: int = 1, write: bool = False) -> list[WarpAccess]:
    """Sequential sweeps over the whole footprint."""
    return [
        WarpAccess(pages=(p,), write=write)
        for _ in range(repeats)
        for p in range(footprint)
    ]


def record_batches(runtime):
    """Wrap ``runtime._batch_hits``; returns the list of run lengths it
    retires."""
    batches = []
    batch_hits = runtime._batch_hits

    def recording_batch(chunk, writes):
        batches.append(len(chunk))
        batch_hits(chunk, writes)

    runtime._batch_hits = recording_batch
    return batches
