"""Smoke test: every demo script runs to completion."""

import runpy

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
