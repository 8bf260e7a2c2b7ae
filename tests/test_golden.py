"""Pinned CLI output: stdout, exit status and error type of fixed commands.

The cases, their files under ``tests/golden/`` and a pytest-free harness
(``--check``, ``--regenerate``) are in ``golden_cases.py``.
"""

import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

import golden_cases
from plumbtoric import cli
from golden_cases import CAPS, CASES, expected, first_difference, orphans, run_case

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# a CLI run, through the module or the installed console script, whose
# stdout the workflow compares with a golden file
PIPED = re.compile(r"(?:python (?:-S )?-m |^\s*)plumbtoric (.+) \| cmp - tests/golden/(\S+)\.out$")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_pinned(name, monkeypatch):
    for var in CAPS:
        monkeypatch.delenv(var, raising=False)
    out, status = run_case(CASES[name])
    golden_out, golden_status = expected(name)
    assert status == golden_status
    assert out == golden_out


def test_no_orphan_golden_files():
    assert orphans() == []


def test_orphans_names_stale_files_and_entries(tmp_path, monkeypatch):
    name = sorted(CASES)[0]
    (tmp_path / (name + ".out")).write_text("")
    (tmp_path / "renamed_case.out").write_text("")
    (tmp_path / "itinerary.json").write_text("{}")  # an input, not a golden
    manifest = {name: {}, "old_case": {}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(golden_cases, "GOLDEN", tmp_path)
    assert orphans() == ["renamed_case.out", "manifest entry old_case"]


def test_first_difference_names_line_and_status():
    ok = {"exit": 0, "error": None}
    assert first_difference(("a\nb\n", ok), ("a\nb\n", ok)) is None
    assert first_difference(("a\nc\n", ok), ("a\nb\n", ok)) == "stdout line 2 is 'c\\n', expected 'b\\n'"
    assert first_difference(("a\n", ok), ("a\nb\n", ok)) == "stdout line 2 is None, expected 'b\\n'"
    assert first_difference(("a", ok), ("a\n", ok)) == "stdout line 1 is 'a', expected 'a\\n'"
    failed = {"exit": 2, "error": "TooShort", "message": "m"}
    assert first_difference(("", failed), ("a\n", ok)) == (
        "error 'TooShort', expected None; exit 2, expected 0; message 'm', expected None; "
        "stdout line 1 is None, expected 'a\\n'"
    )


def _resolved(argv):
    """argv with each existing file, relative to the repository root or
    absolute, replaced by its resolved path."""
    return [str((ROOT / a).resolve()) if (ROOT / a).is_file() else a for a in argv]


def test_workflow_runs_golden_cases():
    # the workflow's ``| cmp - tests/golden/<name>.out`` steps run only on a
    # push; this catches a renamed case or a changed argv in the test suite
    text = re.sub(r"\\\n\s*", " ", WORKFLOW.read_text())
    steps = [m.groups() for m in map(PIPED.search, text.splitlines()) if m]
    assert len(steps) == text.count("| cmp - tests/golden/") > 0
    for args, name in steps:
        assert name in CASES, name
        assert _resolved(shlex.split(args)) == _resolved(CASES[name]), name


def test_console_script_is_cli_main():
    # tomllib is new in 3.11, so the [project.scripts] entry is read by a regex
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^\[project\.scripts\]\nplumbtoric = "([\w.]+):(\w+)"$', text, re.M)
    assert match and match.groups() == ("plumbtoric.cli", "main")
    assert getattr(importlib.import_module(match[1]), match[2]) is cli.main
