"""Checks that guard a mathematical claim must survive `python -O`, which
strips every `assert` statement, so the package raises explicitly."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "plurisusy").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements in {path.name} at lines {lines}"


def test_window_check_survives_optimize():
    code = ("from fractions import Fraction\n"
            "from plurisusy.series import TSeries\n"
            "try:\n"
            "    TSeries(0, [Fraction(1)], 3)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    raise SystemExit('no error raised')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "window length mismatch\n"
