"""The scripts in `demos/` run to the end against the current API and print their docstring first."""

import ast
import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).parents[1] / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_demo_script_runs_and_prints_its_docstring(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith(ast.get_docstring(ast.parse(script.read_text()), clean=False) + "\n")
