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
    status, captured = _run(tool, ENTRY_POINTS[tool][1] + flags, capsys)
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
        ("gmt-check", "Default: scalar"),
    ],
)
def test_help_shows_the_tools_own_default(tool, default, capsys):
    _, captured = _run(tool, ["--help"], capsys)
    assert default in " ".join(captured.out.split())
