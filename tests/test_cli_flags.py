"""The shared command-line flags (:mod:`repro.flags`) on every ``gmt-*``
entry point: bad values are usage errors before any replay starts."""

import importlib
import re
from pathlib import Path

import pytest

#: ``[project.scripts]`` with arguments that satisfy each tool's required
#: positionals, so the flag under test is what the parser rejects.
ENTRY_POINTS = {
    "gmt-experiments": ("repro.experiments.runner:main", ["fig9"]),
    "gmt-sim": ("repro.cli:main_sim", ["hotspot"]),
    "gmt-characterize": ("repro.cli:main_characterize", ["hotspot"]),
    "gmt-serve": ("repro.cli:main_serve", ["--tenants", "bfs"]),
    "gmt-why": ("repro.cli:main_why", ["hotspot", "residency"]),
    "gmt-bench": ("repro.bench:main", []),
    "gmt-check": ("repro.check.cli:main", ["hotspot"]),
    "gmt-report": ("repro.experiments.report_all:main", ["--experiments", "table2"]),
    "gmt-prof": ("repro.prof:main", ["hotspot"]),
    "gmt-top": ("repro.obs.top:main", ["hotspot"]),
}

BAD_VALUES = [(tool, ["--scale", "0"]) for tool in ENTRY_POINTS] + [
    ("gmt-sim", ["--check-every", "0"]),
    ("gmt-serve", ["--check-every", "0"]),
    ("gmt-sim", ["--anomaly-window", "0"]),
    ("gmt-sim", ["--anomaly-scan", "--anomaly-thrash", "-1"]),
    ("gmt-serve", ["--anomaly-scan", "--anomaly-spike", "1"]),
    ("gmt-experiments", ["--jobs", "0"]),
    ("gmt-sim", ["--lifecycle-sample-rate", "0"]),
    ("gmt-sim", ["--lifecycle-sample-rate", "1.5"]),
    ("gmt-why", ["--lifecycle-sample-rate", "0"]),
    ("gmt-why", ["--capacity", "0"]),
    ("gmt-why", ["--window", "0"]),
    ("gmt-why", ["--k", "0"]),
    ("gmt-serve", ["--epoch", "0"]),
    ("gmt-serve", ["--open-loop", "0"]),
    ("gmt-serve", ["--open-loop", "8", "--requests", "0"]),
    ("gmt-serve", ["--open-loop", "8", "--max-backlog", "0"]),
    ("gmt-serve", ["--open-loop", "8", "--arrival-rate", "0"]),
    ("gmt-serve", ["--slo-p50", "0"]),
    ("gmt-serve", ["--slo-p99", "-1"]),
]


def _run(tool, argv, capsys):
    """Exit status and captured output of one in-process invocation."""
    module, _, name = ENTRY_POINTS[tool][0].partition(":")
    main = getattr(importlib.import_module(module), name)
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    return status, capsys.readouterr()


def test_entry_points_match_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = dict(re.findall(r'^(gmt-[\w-]+) = "([\w.:]+)"$', text, re.M))
    assert scripts == {tool: target for tool, (target, _) in ENTRY_POINTS.items()}


@pytest.mark.parametrize(
    "tool, flags", BAD_VALUES, ids=[f"{t} {' '.join(f)}" for t, f in BAD_VALUES]
)
def test_bad_value_is_a_usage_error(tool, flags, capsys):
    # An open-loop serve takes --open-loop in place of --tenants.
    argv = flags if flags[0] == "--open-loop" else ENTRY_POINTS[tool][1] + flags
    status, captured = _run(tool, argv, capsys)
    assert status == 2
    assert "usage:" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("tool", ENTRY_POINTS)
def test_help(tool, capsys):
    status, captured = _run(tool, ["--help"], capsys)
    assert status == 0
    assert captured.out.startswith("usage:")


@pytest.mark.parametrize(
    "tool, default",
    [
        ("gmt-sim", "byte-scale divisor vs the paper's platform (default 256)"),
        ("gmt-bench", "byte-scale divisor vs the paper's platform (default 4096)"),
        ("gmt-prof", "byte-scale divisor vs the paper's platform (default 4096)"),
        ("gmt-experiments", "windows (default 10000)"),
        ("gmt-sim", "windows (default 2000)"),
    ],
)
def test_help_shows_the_tools_own_default(tool, default, capsys):
    _, captured = _run(tool, ["--help"], capsys)
    assert default in " ".join(captured.out.split())


@pytest.mark.parametrize(
    "tool", ["gmt-sim", "gmt-serve", "gmt-bench", "gmt-check", "gmt-experiments"]
)
def test_engine_flag_is_gone(tool, capsys):
    # Every replay batches its hit runs, so no tool selects an engine.
    argv = ENTRY_POINTS[tool][1] + ["--engine", "vector"]
    status, captured = _run(tool, argv, capsys)
    assert status == 2
    assert "unrecognized arguments: --engine vector" in captured.err


OUTPUT_FLAGS = [
    ("gmt-sim", "--trace-out"),
    ("gmt-sim", "--metrics-out"),
    ("gmt-sim", "--lifecycle-out"),
    ("gmt-serve", "--trace-out"),
    ("gmt-serve", "--metrics-out"),
    ("gmt-why", "--record-out"),
    ("gmt-prof", "--json-out"),
    ("gmt-prof", "--collapsed-out"),
]


@pytest.mark.parametrize(
    "tool, flag", OUTPUT_FLAGS, ids=[f"{t} {f}" for t, f in OUTPUT_FLAGS]
)
def test_output_path_in_a_missing_directory_is_a_usage_error(
    tool, flag, tmp_path, monkeypatch, capsys
):
    # Rejected while parsing, before the replay that would have been
    # thrown away when the write failed.
    from repro.core.runtime import GMTRuntime

    def replayed(*args, **kwargs):
        raise AssertionError("replayed before checking the output path")

    monkeypatch.setattr(GMTRuntime, "access", replayed)
    path = tmp_path / "no" / "such" / "dir" / "out"
    argv = ENTRY_POINTS[tool][1] + ["--scale", "16384", flag, str(path)]
    status, captured = _run(tool, argv, capsys)
    assert status == 2
    assert "does not exist" in captured.err
    assert "Traceback" not in captured.err
