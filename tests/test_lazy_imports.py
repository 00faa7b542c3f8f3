"""No module of the package imports `dataclasses` or `series` when it is
imported: `dataclasses` costs every CLI process about 4 ms, and only the
routines that build a series import `series`, when they run.  The CLI
pins in test_cold_start.py run the subcommands; this check also covers
import paths that only library callers take.  Code that runs at import
is everything outside function bodies and `if TYPE_CHECKING:` blocks.

Series are built only by `curve`, for the public `laurent_at` and
`evaluate` and the series of x and y behind them: no other module names
`series` or `TSeries` at all."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "plurisusy").glob("*.py"))
BANNED = {"dataclasses", "series"}


def _import_time_nodes(tree: ast.Module):
    """The statements that run when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        stack.extend(n for n in ast.iter_child_nodes(node)
                     if isinstance(n, ast.stmt))


def _banned_imports(source: str):
    """(line, module) of each import of a banned module run at import."""
    for node in _import_time_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            leaf = name.rpartition(".")[2]
            if leaf in BANNED or name.partition(".")[0] in BANNED:
                yield node.lineno, leaf if leaf in BANNED else name
                break


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "series"],
                         ids=lambda p: p.name)
def test_module_imports_no_dataclasses_or_series_at_import(path):
    found = list(_banned_imports(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} imports at module level: {found}"


@pytest.mark.parametrize("source", [
    "from dataclasses import dataclass\n",
    "import dataclasses\n",
    "from .series import TSeries\n",
    "from . import polyq, series\n",
    "import plurisusy.series\n",
    "try:\n    from .series import TSeries\nexcept ImportError:\n    pass\n",
    "class A:\n    from .series import TSeries\n",
    "if X:\n    pass\nelse:\n    import dataclasses\n",
    "if TYPE_CHECKING:\n    pass\nelse:\n    from .series import TSeries\n",
])
def test_check_sees_an_import_at_module_level(source):
    assert list(_banned_imports(source))


@pytest.mark.parametrize("source", [
    "def f():\n    from .series import TSeries\n",
    "class A:\n    def f(self):\n        import dataclasses\n",
    "if TYPE_CHECKING:\n    from .series import TSeries\n",
    "from .records import frozen\nfrom . import polyq\n",
])
def test_check_allows_imports_that_run_later(source):
    assert not list(_banned_imports(source))


SERIES_NAMES = {"series", "TSeries"}


def _series_names(source: str):
    """(line, name) of each identifier, attribute or import naming the
    series module or its class."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.ImportFrom):
            name = (node.module or "").rpartition(".")[2]
        else:
            continue
        if name in SERIES_NAMES:
            yield node.lineno, name


def test_only_curve_names_series():
    users = {p.name for p in MODULES if p.stem != "series"
             and any(_series_names(p.read_text(encoding="utf-8")))}
    assert users == {"curve.py"}


@pytest.mark.parametrize("source", [
    "from .series import TSeries\n",
    "from . import series\n",
    "def f():\n    from .series import sqrt_with\n",
    "x = curve.TSeries\n",
])
def test_series_check_sees_a_name(source):
    assert list(_series_names(source))


def test_series_check_ignores_strings_and_other_names():
    assert not list(_series_names(
        '"""a finite geometric series"""\nfrom .polyq import sqrt_window\n'
        "laurent = series_of = 1\n"))
