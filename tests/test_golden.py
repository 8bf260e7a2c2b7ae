"""Pinned CLI output: stdout, exit status and error type of fixed commands.

The cases, their files under ``tests/golden/`` and a pytest-free harness
(``--check``, ``--regenerate``) are in ``golden_cases.py``.
"""

import pytest

from golden_cases import CAPS, CASES, expected, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_pinned(name, monkeypatch):
    for var in CAPS:
        monkeypatch.delenv(var, raising=False)
    out, status = run_case(CASES[name])
    golden_out, golden_status = expected(name)
    assert status == golden_status
    assert out == golden_out
