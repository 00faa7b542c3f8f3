"""No true division in the package can make a float.

`polyq` keeps an integral coefficient as an int, and int / int is a
float.  So a `/` (or `/=`) in `src/plurisusy` is allowed only where one
operand is a `Fraction(...)` call, or a name listed in ALLOWED with the
reason it is never an int.  The other half of the guard: `polyq.poly`,
`QuadExt` and `ColumnSpace` raise TypeError on a float rather than take
`Fraction(0.1)`, which is not 1/10."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from plurisusy import polyq
from plurisusy.fieldext import QuadExt
from plurisusy.linalg import ColumnSpace

SRC = Path(__file__).resolve().parents[1] / "src" / "plurisusy"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# (module, name): why that name, as an operand of `/`, is never an int
ALLOWED = {}

# (module, scope) of the divisions that would divide int by int without
# their Fraction(...) wrapper: dropping any one must fail the check.
WRAPPED = {
    ("polyq", "divmod_"), ("polyq", "monic"),
    ("curve", "HyperellipticCurve.x_series_at_branch"),
    ("curve", "FunctionFieldElement.__init__"),
    ("fieldext", "QuadExt.inv"), ("linalg", "ColumnSpace.add"),
    ("pluricanonical", "_infinity_residue"),
    ("riemann_roch", "_mumford_pair"), ("riemann_roch", "_mumford_step"),
    ("serialize", "point_to_json"),
    ("graded_algebra", "RationalFunction.__init__"),
}


def _sources():
    return {p.stem: p.read_text(encoding="utf-8")
            for p in sorted(SRC.glob("*.py"))}


def _divisions(tree: ast.AST, scope: str = ""):
    """(scope, operands) of each `/` and `/=`, with scope the dotted
    Class.method or function around it ("" at module level)."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, SCOPES):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            yield scope, (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            yield scope, (node.target, node.value)
        yield from _divisions(node, inner)


def _is_fraction_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def _unguarded(module: str, src: str):
    """The source of each division in src with neither operand a
    Fraction(...) call nor a name ALLOWED in module."""
    return [ast.unparse(ast.BinOp(left, ast.Div(), right))
            for _, (left, right) in _divisions(ast.parse(src))
            if not any(_is_fraction_call(o) or (isinstance(o, ast.Name)
                                                and (module, o.id) in ALLOWED)
                       for o in (left, right))]


def _without_wrapper(src: str, call: ast.Call) -> str:
    """src with the one-argument call Fraction(a) replaced by (a).  The
    AST's column offsets count UTF-8 bytes."""
    lines = src.encode("utf-8").splitlines(keepends=True)
    start = sum(map(len, lines[:call.lineno - 1])) + call.col_offset
    end = sum(map(len, lines[:call.end_lineno - 1])) + call.end_col_offset
    arg = ast.get_source_segment(src, call.args[0]).encode("utf-8")
    code = src.encode("utf-8")
    return (code[:start] + b"(" + arg + b")" + code[end:]).decode("utf-8")


def test_every_true_division_has_a_fraction_operand():
    bad = {module: found for module, src in _sources().items()
           if (found := _unguarded(module, src))}
    assert not bad, f"int / int would be a float: {bad}"


def test_every_allowed_name_is_divided_by():
    used = {(module, o.id) for module, src in _sources().items()
            for _, operands in _divisions(ast.parse(src))
            for o in operands if isinstance(o, ast.Name)}
    assert set(ALLOWED) <= used, set(ALLOWED) - used


def test_dropping_any_wrapper_fails_the_check():
    """Each one-argument Fraction(...) operand of a division, unwrapped in
    memory, leaves a division the check rejects; the sites include every
    one of WRAPPED."""
    seen = set()
    for module, src in _sources().items():
        for scope, operands in _divisions(ast.parse(src)):
            for call in operands:
                if not (_is_fraction_call(call) and len(call.args) == 1):
                    continue
                other = operands[1] if call is operands[0] else operands[0]
                if _is_fraction_call(other):
                    continue  # still guarded by the other operand
                mutant = _without_wrapper(src, call)
                assert mutant != src
                assert _unguarded(module, mutant), (module, scope)
                seen.add((module, scope))
    assert WRAPPED <= seen, WRAPPED - seen


@pytest.mark.parametrize("build", [
    lambda: polyq.poly([0.5]),
    lambda: polyq.poly([1, Fraction(1, 2), 0.5]),
    lambda: QuadExt(0.5, 1, 2),
    lambda: QuadExt(Fraction(1, 2), 1.0, 2),
    lambda: ColumnSpace(1).add([0.5]),
    lambda: ColumnSpace(2).reduce([1, 0.5]),
], ids=["poly", "poly-mixed", "quadext-u", "quadext-v", "column-add",
        "column-reduce"])
def test_a_float_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()
