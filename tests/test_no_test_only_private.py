"""Every private name of the package is used by the package.

A `_`-prefixed module-level function or class of `src/plurisusy`, or a
`_`-prefixed method, must be referenced by some module of the package
other than at its own definition (its body included).  A reference is an
AST `Name`, an `Attribute` or an import alias with that name.  A helper
that only tests call, such as an oracle kept to check a faster
algorithm, belongs under `tests/`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "plurisusy"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private_defs(tree: ast.Module):
    """The private module-level functions and classes, and the private
    methods of module-level classes (dunder names are not private)."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, DEFS))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _references(tree: ast.Module):
    """(name, line) of every Name, Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _unreferenced(sources):
    """(module, name) of each private definition that nothing outside its
    own definition references, and the number of private names checked."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = {name: list(_references(tree)) for name, tree in trees.items()}
    found, checked = [], 0
    for module, tree in trees.items():
        for node in _private_defs(tree):
            if not _is_private(node.name):
                continue
            checked += 1
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == node.name and not (m == module and line in own)
                       for m, rs in refs.items() for ref, line in rs):
                found.append((module, node.name))
    return found, checked


def test_every_private_name_is_used_by_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    found, checked = _unreferenced(sources)
    assert checked > 50
    assert not found, f"private names only tests use: {found}"


def test_check_sees_a_name_only_its_own_body_uses():
    src = ("def _oracle(n):\n    return _oracle(n - 1) if n else 0\n"
           "class A:\n    def _m(self):\n        return self._m\n"
           "    def __eq__(self, other):\n        return True\n"
           "def _used():\n    pass\n"
           "x = _used()\n")
    found, checked = _unreferenced({"m": src})
    assert (found, checked) == ([("m", "_oracle"), ("m", "_m")], 3)


def test_check_counts_other_modules_and_import_aliases():
    sources = {"a": "def _helper():\n    pass\n"
                    "class _Cache:\n    pass\n",
               "b": "from .a import _helper\n",
               "c": "import a\nx = a._Cache\n"}
    assert _unreferenced(sources) == ([], 2)
