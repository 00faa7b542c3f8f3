"""Every name the package defines is used by the package, or says why not.

A `_`-prefixed module-level function or class of `src/plurisusy`, or a
`_`-prefixed method, must be referenced by some module of the package
other than at its own definition (its body included).  A reference is an
AST `Name`, an `Attribute` or an import alias with that name.  A helper
that only tests call, such as an oracle kept to check a faster
algorithm, belongs under `tests/`.

A public function, class or method must be so referenced too, or be
exported from its module by `plurisusy._EXPORTS` (module-level names
only), or be listed in UNCALLED_PUBLIC with the reason it stays."""

import ast
from pathlib import Path

import plurisusy

SRC = Path(__file__).resolve().parents[1] / "src" / "plurisusy"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# (module, qualified name): why a public name no module of the package
# references stays in src/
UNCALLED_PUBLIC = {
    ("curve", "FunctionFieldElement.conj"):
        "library API: the image under the involution y -> -y",
    ("curve", "FunctionFieldElement.norm_fn"):
        "library API: fn * conj(fn) as a function of x",
    ("curve", "Divisor.support"): "library API: the sorted support",
    ("curve", "Divisor.is_effective"): "library API: D >= 0",
    ("fieldext", "rows_independent"):
        "the tests' reference for int_rows_dependent and for row_key, "
        "which checks row_classes; the benchmark wraps it",
    ("graded_algebra", "GrassmannElement.substitute"):
        "library API: substitution for z and the odd generators",
    ("graded_algebra", "GrassmannAlgebra.element"):
        "library API: an element from its coefficient map",
    ("serialize", "theta_to_json"):
        "library API: the inverse of theta_from_json",
    ("serialize", "supercurve_from_json"):
        "library API: the inverse of supercurve_to_json",
}


def _defs(tree: ast.Module):
    """(qualified name, node) of the module-level functions and classes
    and of the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{n.name}", n) for n in node.body
                        if isinstance(n, DEFS))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _references(tree: ast.Module):
    """(name, line) of every Name, Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _unreferenced(sources, kind=_is_private, exported=()):
    """(module, qualified name) of each definition whose name is of the
    kind checked, that is not in exported, and that nothing outside its
    own definition references; and the number of names of that kind
    checked."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = {name: list(_references(tree)) for name, tree in trees.items()}
    found, checked = [], 0
    for module, tree in trees.items():
        for qual, node in _defs(tree):
            if not kind(node.name):
                continue
            checked += 1
            if (module, qual) in exported:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == node.name and not (m == module and line in own)
                       for m, rs in refs.items() for ref, line in rs):
                found.append((module, qual))
    return found, checked


def _sources():
    return {p.stem: p.read_text(encoding="utf-8")
            for p in sorted(SRC.glob("*.py"))}


def test_every_private_name_is_used_by_the_package():
    found, checked = _unreferenced(_sources())
    assert checked > 50
    assert not found, f"private names only tests use: {found}"


def test_every_public_name_is_exported_used_or_listed():
    exported = {(module, name)
                for module, names in plurisusy._EXPORTS.items()
                for name in names}
    found, checked = _unreferenced(_sources(), _is_public, exported)
    assert checked > 200
    assert set(found) == set(UNCALLED_PUBLIC), (
        f"unreferenced public names not listed: "
        f"{sorted(set(found) - set(UNCALLED_PUBLIC))}; listed names now "
        f"referenced or gone: {sorted(set(UNCALLED_PUBLIC) - set(found))}")


def test_check_sees_a_name_only_its_own_body_uses():
    src = ("def _oracle(n):\n    return _oracle(n - 1) if n else 0\n"
           "class A:\n    def _m(self):\n        return self._m\n"
           "    def __eq__(self, other):\n        return True\n"
           "def _used():\n    pass\n"
           "x = _used()\n")
    found, checked = _unreferenced({"m": src})
    assert (found, checked) == ([("m", "_oracle"), ("m", "A._m")], 3)


def test_public_check_skips_exports_but_not_their_methods():
    src = ("def api():\n    pass\n"
           "def helper():\n    return helper\n"
           "class Api:\n    def used(self):\n        pass\n"
           "    def spare(self):\n        return self.used()\n"
           "    def _private(self):\n        pass\n")
    found, checked = _unreferenced({"m": src}, _is_public,
                                   {("m", "api"), ("m", "Api"),
                                    ("other", "helper")})
    assert (found, checked) == ([("m", "helper"), ("m", "Api.spare")], 5)


def test_check_counts_other_modules_and_import_aliases():
    sources = {"a": "def _helper():\n    pass\n"
                    "class _Cache:\n    pass\n",
               "b": "from .a import _helper\n",
               "c": "import a\nx = a._Cache\n"}
    assert _unreferenced(sources) == ([], 2)
