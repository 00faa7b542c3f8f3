"""One rule for every exact scalar: an int when integral, else a Fraction.

`polyq.rational` decides the form, and every producer of a scalar
follows it: the roots of `polyq.rational_roots`, point coordinates (the
parts of a QuadExt y included), `make_sqrt`, `sqrt_normal_form` and
`rational_sqrt`, `rr_space` bases, `build_model` sections and the
superpoint residue matrices.  The guard at the end keeps a
`Fraction(<int literal>)` out of `src/plurisusy` (series.py aside), except
as an operand of `/`, where it makes the division exact."""

import ast
import random
from fractions import Fraction

import pytest

from plurisusy import polyq, serialize
from plurisusy.curve import Divisor, HyperellipticCurve, standard_curve
from plurisusy.fieldext import (QuadExt, make_sqrt, rational_sqrt,
                                sqrt_normal_form)
from plurisusy.pluricanonical import (SuperPointFamily, build_model,
                                      pushforward_over_superpoint,
                                      random_deformation)
from plurisusy.riemann_roch import parity_representatives, rr_space
from plurisusy.supercurve import make_split_supercurve
from test_true_division import _divisions, _is_fraction_call, _sources

# y^2 = (x - 1/2)(x - 3/2)(x + 1/3)(x - 5)(x + 7/2): roots and
# coefficients that are not integers, so products of Fractions can be
# integral
ROOTS = (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3), 5, Fraction(-7, 2))
C = HyperellipticCurve(polyq.from_roots(ROOTS))
# 6 times its f, which is 36 at x = 1 and 225 at x = -1
CQ = HyperellipticCurve(polyq.scale(C.f, 6))


def is_exact(c) -> bool:
    """c follows the rule: an int when integral, a Fraction otherwise."""
    if type(c) is QuadExt:
        return is_exact(c.u) and is_exact(c.v)
    return type(c) is (int if c.denominator == 1 else Fraction)


def _basis_scalars(basis):
    return [c for s in basis for p in (s.A, s.B, s.den) for c in p]


def test_rational_roots_follow_the_rule():
    rng = random.Random(3)
    for _ in range(40):
        roots = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                 for _ in range(rng.randint(1, 6))]
        p = polyq.scale(polyq.mul(polyq.from_roots(roots), (1, 0, 1)),
                        Fraction(rng.randint(1, 6), rng.randint(1, 6)))
        got, _ = polyq.rational_roots(p)
        assert [r for r, _ in got] == sorted(set(roots))
        assert all(is_exact(r) for r, _ in got)
    assert [type(r) for r, _ in polyq.rational_roots(C.f)[0]] == [
        Fraction, Fraction, Fraction, Fraction, int]


def test_point_coordinates_follow_the_rule():
    S = standard_curve(2)
    P = S.branch_point(Fraction(1))
    assert type(P.x) is int and type(P.y) is int
    assert all(is_exact(Q.x) and Q.y == 0 and type(Q.y) is int
               for Q in C.rational_branch_points())
    T = HyperellipticCurve(polyq.from_roots((0, 1, 2, 3, -7)))
    points = [T.point(Fraction(-1), Fraction(-12)),  # f(-1) = 144
              S.point(Fraction(-1), sign=-1),  # f(-1) = -120
              S.point(Fraction(10, 4)), C.point(Fraction(4, 2))]
    assert type(points[0].x) is type(points[0].y) is int
    assert type(points[1].y) is QuadExt and points[1].y.u == 0
    for Q in points + [Q.conjugate() for Q in points]:
        assert is_exact(Q.x) and is_exact(Q.y)
        R = serialize.point_from_json(Q.curve, serialize.point_to_json(Q))
        assert R == Q and is_exact(R.x) and is_exact(R.y)
    with pytest.raises(TypeError):
        S.point(2.0)


def test_square_roots_follow_the_rule():
    for fr in (0, 1, 4, Fraction(9), Fraction(9, 4), Fraction(1, 8), 8, -12,
               Fraction(-50, 9), Fraction(72, 2)):
        coeff, d = sqrt_normal_form(Fraction(fr))
        assert is_exact(coeff) and coeff * coeff * d == fr
        root = make_sqrt(Fraction(fr))
        assert is_exact(root) and root * root == fr
        s = rational_sqrt(Fraction(fr))
        assert s is None or (is_exact(s) and s * s == fr)
    assert type(make_sqrt(Fraction(36))) is int
    assert type(rational_sqrt(Fraction(36))) is int
    assert make_sqrt(Fraction(8)).v == 2 and type(make_sqrt(8).v) is int
    assert type(make_sqrt(Fraction(8)) * 0) is int


def _random_divisors(rng, n):
    """Galois-stable divisors on CQ: branch points, rational points on
    one sheet or both, and inert pairs, with infinity making the degree
    -1..10."""
    branch = CQ.rational_branch_points()
    rational = (-1, 1, Fraction(31, 2))
    inert = [Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3)
             if rational_sqrt(polyq.eval_at(CQ.f, Fraction(a, b))) is None]
    for _ in range(n):
        data = {}
        for _ in range(rng.randint(1, 4)):
            roll = rng.randrange(3)
            if roll == 0:
                data[rng.choice(branch)] = rng.randint(-3, 5)
            elif roll == 1:
                P = CQ.point(rng.choice(rational), sign=rng.choice((1, -1)))
                data[P] = rng.randint(-2, 3)
            else:
                P = CQ.point(rng.choice(inert))
                data[P] = data[P.conjugate()] = rng.randint(-2, 2)
        D = Divisor(data)
        yield D + Divisor.of_point(CQ.infinity(),
                                   rng.randint(-1, 10) - D.degree())


def test_rr_space_bases_follow_the_rule():
    b = C.branch_point
    D = Divisor({b(Fraction(-7, 2)): 4, b(Fraction(-1, 3)): 2,
                 b(Fraction(1, 2)): -2, b(Fraction(3, 2)): -1,
                 C.infinity(): 7})
    basis = rr_space(C, D)
    # (x^4 - 5x + 39/16)/(...) held -5 as Fraction(-5, 1)
    assert any(type(c) is int and c == -5 for s in basis for c in s.A)
    scalars = _basis_scalars(basis)
    for E in _random_divisors(random.Random(1), 300):
        scalars += _basis_scalars(rr_space(CQ, E))
    assert sum(type(c) is int for c in scalars) > 1000
    assert all(map(is_exact, scalars))


def test_model_sections_and_residues_follow_the_rule():
    rng = random.Random(7)
    residues = []
    for theta in parity_representatives(C):
        X = make_split_supercurve(C, theta)
        for nu in (3, 4):
            M = build_model(X, nu, force=True)
            assert all(map(is_exact, _basis_scalars(
                M.even_sections + M.odd_sections)))
        for _ in range(3):
            F = SuperPointFamily(X, random_deformation(C, rng=rng))
            for nu in (1, 2):
                rep = pushforward_over_superpoint(F, nu)
                residues += [c for M in (rep.residues_even, rep.residues_odd)
                             for row in M for c in row]
    assert any(type(c) is int and c for c in residues)
    assert all(map(is_exact, residues))


def _integral_fraction_literals(src: str):
    """The source of each Fraction(<int literal>) in src that is not an
    operand of `/` or `/=`."""
    tree = ast.parse(src)
    divided = {id(o) for _, operands in _divisions(tree) for o in operands}

    def int_literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if _is_fraction_call(node) and len(node.args) == 1
            and int_literal(node.args[0]) and id(node) not in divided]


@pytest.mark.parametrize("src, found", [
    ("x = Fraction(0)", 1), ("x = [Fraction(-1)]", 1),
    ("f(Fraction(1)) / y", 1), ("x = Fraction(1) / y", 0),
    ("x /= Fraction(2)", 0), ("x = Fraction(1, 2)", 0),
    ("x = Fraction(n)", 0)])
def test_the_literal_guard_finds_what_it_should(src, found):
    assert len(_integral_fraction_literals(src)) == found


def test_no_integral_fraction_literal_outside_a_division():
    bad = {module: found for module, src in _sources().items()
           if module != "series"
           and (found := _integral_fraction_literals(src))}
    assert not bad, f"an integral scalar is an int: {bad}"
