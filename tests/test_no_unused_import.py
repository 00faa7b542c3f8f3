"""Every name a module of the package imports at module level is used in
that module.  `__init__.py` re-exports its imports and `from __future__`
binds nothing, so both are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p for p in (SRC / "plurisusy").glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """(bound name, line) of each import in the module body, including
    those under a module-level `if` such as `if TYPE_CHECKING:`."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module):
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = sorted((line, name) for name, line in _imported_names(tree)
                    if name not in used)
    assert not unused, f"unused imports in {path.name}: {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("from typing import List, Tuple\n"
                     "x: 'List[int]' = []\n")
    assert ({name for name, _ in _imported_names(tree)} - _used_names(tree)
            == {"Tuple"})
