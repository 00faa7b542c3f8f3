"""One caller of the package vouches that a polynomial is squarefree.

`polyq.rational_roots(p, squarefree=True)` skips the gcd of p and p', and
on a repeated linear factor its root search would never find a prime to
work modulo.  The only caller that may pass it is
`HyperellipticCurve._f_roots`, whose constructor has just proved f
squarefree.  A voucher is a call with a `squarefree` keyword whose value
is anything but the constant False."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "plurisusy"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _vouchers(tree: ast.AST, scope: str = ""):
    """The dotted scope (Class.method, function, or "" for module level)
    of each call that passes squarefree= with a value other than False."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, SCOPES):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and any(
                kw.arg == "squarefree" and not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is False)
                for kw in node.keywords):
            yield scope
        yield from _vouchers(node, inner)


def _all_vouchers(sources):
    return sorted((module, scope) for module, src in sources.items()
                  for scope in _vouchers(ast.parse(src)))


def test_only_f_roots_vouches_for_squarefree():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert _all_vouchers(sources) == [("curve", "HyperellipticCurve._f_roots")]


def test_check_sees_every_kind_of_voucher():
    src = ("from .polyq import rational_roots\n"
           "x = rational_roots(p, squarefree=True)\n"
           "def f(p, sure):\n"
           "    return rational_roots(p, squarefree=sure)\n"
           "class A:\n"
           "    def m(self):\n"
           "        return [polyq.rational_roots(q, squarefree=1) for q in ()]\n"
           "    def n(self):\n"
           "        return polyq.rational_roots(self.f, squarefree=False)\n"
           "def g(p):\n"
           "    return polyq.rational_roots(p)\n")
    assert _all_vouchers({"m": src}) == [("m", ""), ("m", "A.m"), ("m", "f")]
