"""Self-tests of the end-to-end benchmark harness, on shrunken workloads.

    PYTHONPATH=src python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import copy
import math
import shutil
import subprocess
import sys

import pytest

import compare
import run
import spans
import worker

BENCH = run.load_benchmark()

#: Each workload shrunk to well under a second per rep.
SMALL = {
    "paper-dense": {"scale": 16384},
    "paper-graph": {"scale": 8192},
    "kv-hit": {"lookups": 20_000},
    "fleet-openloop": {"tenants": 16, "requests_per_tenant": 8},
}


@pytest.fixture(scope="module")
def reps():
    """One untraced and one traced rep of every workload, in-process."""
    return {
        name: [worker.run_rep(name, 0, trace, sizes=sizes) for trace in (False, True)]
        for name, sizes in SMALL.items()
    }


@pytest.mark.parametrize("name", list(SMALL))
def test_every_metric_with_its_unit(reps, name):
    summary = run.summarize(reps[name], BENCH)
    assert summary["failed"] == 0, summary["errors"]
    wanted = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    got = {key: stat["unit"] for key, stat in summary["metrics"].items()}
    assert got == wanted
    for m in BENCH["end_to_end"]:
        value = summary["metrics"][m["name"]]["value"]
        assert math.isfinite(value) and value > 0, m["name"]


def test_raising_worker_fails_its_ops():
    crashed = run.spawn_rep("no-such-workload", 0, False)
    assert "crash" in crashed
    summary = run.summarize([crashed], BENCH)
    assert summary["failed"] == summary["attempted"] == 1
    assert summary["fail_rate"] == 1.0


def test_perturbed_fingerprint_fails_one_op(reps):
    good = reps["paper-graph"][0]
    perturbed = copy.deepcopy(good)
    label = next(iter(perturbed["fingerprints"]))
    perturbed["fingerprints"][label] = "0" * 64
    clean = run.summarize([good, copy.deepcopy(good)], BENCH)
    summary = run.summarize([good, copy.deepcopy(good), perturbed], BENCH)
    assert clean["failed"] == 0
    assert summary["failed"] == 1
    assert summary["fail_rate"] > clean["fail_rate"]


def nests(doc: dict) -> bool:
    """Every span ends after it starts and lies inside its parent."""
    bounds = {sid: (start, end, parent) for sid, _, start, end, parent in doc["spans"]}
    for start, end, parent in bounds.values():
        if end is None or end < start:
            return False
        if parent is not None:
            p_start, p_end, _ = bounds[parent]
            if start < p_start or end > p_end:
                return False
    return True


@pytest.mark.parametrize("name", list(SMALL))
def test_spans_nest_and_cover_the_traced_wall(reps, name):
    traced = reps[name][1]
    doc = traced["spans"]
    assert nests(doc)
    own, _ = spans.self_times(doc)
    assert all(seconds >= -1e-9 for seconds in own.values())
    assert traced["metrics"]["trace.coverage"] >= 0.9
    assert sum(traced["layers"].values()) == pytest.approx(1.0)


def test_tracing_leaves_results_alone(reps):
    for untraced, traced in reps.values():
        assert untraced["fingerprints"] == traced["fingerprints"]


def _doc(values: list[float], fail_rate: float = 0.0, seed: int = 0,
         fingerprint: str = "f", sim: float = 1.0) -> dict:
    metrics = {"wall_s": run.metric(values, "s"),
               "sim_elapsed_s": run.metric([sim], "sim_s")}
    return {"seed": seed, "workloads": {"w": {
        "fail_rate": fail_rate, "fingerprint": fingerprint, "metrics": metrics}}}


@pytest.mark.parametrize(
    "a, b, word",
    [
        ([10.0, 10.1, 10.2], [10.1, 10.2, 10.3], "within bound"),
        ([10.0, 10.1, 10.2], [13.0, 13.1, 13.2], "worse"),
        ([10.0, 10.1, 10.2], [7.0, 7.1, 7.2], "better"),
        ([8.0, 10.0, 12.0], [9.0, 10.5, 12.5], "unresolved"),
    ],
)
def test_compare_verdicts(a, b, word):
    lines, regressed = compare.compare(_doc(a), _doc(b), BENCH)
    assert lines[1].endswith(word)
    assert lines[-1].endswith("within bound")
    assert regressed == (word == "worse")


def test_compare_flags_a_higher_fail_rate():
    _, regressed = compare.compare(_doc([1.0]), _doc([1.0], fail_rate=0.5), BENCH)
    assert regressed


@pytest.mark.parametrize(
    "b, word, regressed",
    [
        (_doc([1.0], sim=1.0001), "changed", True),
        (_doc([1.0], fingerprint="g"), "within bound", True),
        (_doc([1.0], sim=1.0001, fingerprint="g", seed=1), "within bound", False),
    ],
)
def test_compare_holds_modelled_results_exact_on_one_seed(b, word, regressed):
    """On one seed any move of a sim_* metric or a fingerprint regresses,
    however far inside its cross-seed bound; across seeds it does not."""
    lines, got = compare.compare(_doc([1.0]), b, BENCH)
    assert lines[-1].endswith(word)
    assert got == regressed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    command = BENCH["command"][1:]
    proc = subprocess.run(
        [sys.executable, *command, "--workload", "kv-hit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
