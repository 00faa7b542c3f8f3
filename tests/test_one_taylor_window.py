"""The Taylor window of y at a point off the branch locus is built once.

`polyq.sqrt_window` lifts sqrt(f) from y0 term by term.  The package's
conditions off the branch locus (L(D)'s excess rows through the Mumford
pair, `_mumford_step`, `jets.SectionJets._taylor_rows`) read the window
from `HyperellipticCurve._y_window`, and the public series layer lifts
its own square roots in `TSeries.sqrt_with`.  No other code may call
`sqrt_window`, by its module name or imported bare."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "plurisusy"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _callers(tree: ast.AST, scope: str = ""):
    """The dotted scope (Class.method, function, or "" for module level)
    of each call of sqrt_window, as a bare name or an attribute."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, SCOPES):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name == "sqrt_window":
                yield scope
        yield from _callers(node, inner)


def _all_callers(sources):
    return sorted((module, scope) for module, src in sources.items()
                  for scope in _callers(ast.parse(src)))


def test_only_y_window_and_sqrt_with_lift_a_square_root():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert _all_callers(sources) == [
        ("curve", "HyperellipticCurve._y_window"),
        ("series", "TSeries.sqrt_with")]


def test_check_sees_every_kind_of_call():
    src = ("from .polyq import sqrt_window\n"
           "x = sqrt_window(F, 1, 3)\n"
           "def f(P):\n"
           "    return polyq.sqrt_window(polyq.taylor(f, P.x, 2), P.y, 2)\n"
           "class A:\n"
           "    def m(self, n):\n"
           "        return [sqrt_window(F, r, n) for r in (1, 2)]\n"
           "    def n(self):\n"
           "        return self._y_window(P, 3)\n"
           "def sqrt_window(F, root0, n):\n"
           "    return list(F)\n")
    assert _all_callers({"m": src}) == [("m", ""), ("m", "A.m"), ("m", "f")]
