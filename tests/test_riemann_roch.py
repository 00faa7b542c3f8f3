"""Riemann-Roch spaces, divisor classes, and the theta census."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from plurisusy import polyq
from plurisusy.curve import Divisor, HyperellipticCurve, standard_curve
from plurisusy.riemann_roch import (DivisorClass, branch_roots,
                                    canonical_class, canonical_divisor,
                                    class_eq, h0, h1, is_principal,
                                    parity_representatives,
                                    reduce_weierstrass, rr_space,
                                    theta_characteristics, theta_from_subset)

C2 = standard_curve(2)
C3 = standard_curve(3)

# auxiliary curves with a designed rational non-branch point
CR2 = HyperellipticCurve(polyq.from_roots(
    [Fraction(r) for r in (0, 1, 2, 3, -7)]))   # (-1, 12) lies on it
CR3 = HyperellipticCurve(polyq.from_roots(
    [Fraction(r) for r in (0, 1, 2, 3, 4, 5, -6)]))  # (-1, 60) lies on it


# ---------------------------------------------------------------------------
# explicit spaces
# ---------------------------------------------------------------------------


def test_space_of_double_infinity():
    basis = rr_space(C2, Divisor({C2.infinity(): 2}))
    assert [repr(b) for b in basis] == ["1", "x"]


def test_space_of_six_infinity():
    basis = rr_space(C2, Divisor({C2.infinity(): 6}))
    assert [repr(b) for b in basis] == ["1", "x", "x^2", "x^3", "y"]


def test_space_of_zero_divisor():
    basis = rr_space(C2, Divisor())
    assert len(basis) == 1
    assert repr(basis[0]) == "1"


def test_space_with_branch_pole():
    W0 = C2.branch_point(Fraction(0))
    basis = rr_space(C2, Divisor({W0: 1}))
    # only constants: a lone branch pole of order 1 cannot be realized
    assert len(basis) == 1


def test_space_negative_divisor_empty():
    P = C2.branch_point(Fraction(1))
    assert rr_space(C2, Divisor({P: -1})) == []


def test_membership_is_exact():
    # every basis element b of L(D) satisfies div(b) + D >= 0
    D = Divisor({C2.infinity(): 5, C2.branch_point(Fraction(0)): 1})
    for b in rr_space(C2, D):
        E = C2.divisor_of(b) + D
        assert E.is_effective()


def test_canonical_cohomology():
    K2 = canonical_divisor(C2)
    assert K2.degree() == 2
    assert h0(C2, K2) == 2
    assert h1(C2, K2) == 1
    K3 = canonical_divisor(C3)
    assert K3.degree() == 4
    assert h0(C3, K3) == 3
    assert h1(C3, K3) == 1


def test_serre_duality_h1():
    # h1(D) = h0(K - D) on assorted divisors
    K = canonical_divisor(C2)
    inf = C2.infinity()
    for D in (Divisor(), Divisor({inf: 1}), Divisor({inf: 3}), K):
        assert h1(C2, D) == h0(C2, K - D)


# ---------------------------------------------------------------------------
# Riemann-Roch identity on random divisors
# ---------------------------------------------------------------------------


def _random_stable_divisor(curve, rng, P_rat):
    """Galois-stable divisor: rational points freely, conjugate quadratic
    points in pairs."""
    g = curve.genus
    D = Divisor()
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        n = rng.randint(-2, 3)
        if n == 0:
            continue
        if roll < 0.3:
            D = D + Divisor.of_point(curve.infinity(), n)
        elif roll < 0.55:
            pts = curve.rational_branch_points()
            D = D + Divisor.of_point(pts[rng.randrange(len(pts))], n)
        elif roll < 0.75:
            D = D + Divisor.of_point(P_rat, n)
        else:
            x0 = Fraction(rng.randint(-6, 6))
            if polyq.eval_at(curve.f, x0) == 0:
                D = D + Divisor.of_point(curve.branch_point(x0), n)
            else:
                D = D + Divisor.of_point(curve.point(x0, sign=1), n)
                D = D + Divisor.of_point(curve.point(x0, sign=-1), n)
    return D


@pytest.mark.parametrize("curve,P", [
    (CR2, CR2.point(Fraction(-1), y=Fraction(12))),
    (CR3, CR3.point(Fraction(-1), y=Fraction(60))),
])
def test_riemann_roch_identity_random(curve, P):
    g = curve.genus
    rng = random.Random(17 + g)
    count = 0
    while count < 50:
        D = _random_stable_divisor(curve, rng, P)
        if not (-3 <= D.degree() <= 4 * g):
            continue
        assert h0(curve, D) - h1(curve, D) == D.degree() - g + 1
        count += 1


def test_h0_degree_bounds():
    rng = random.Random(20)
    count = 0
    while count < 30:
        D = _random_stable_divisor(CR2, rng, CR2.point(Fraction(-1), y=Fraction(12)))
        d = D.degree()
        if d < 0:
            assert h0(CR2, D) == 0
            count += 1
        elif d > 2 * CR2.genus - 2:
            assert h0(CR2, D) == d - CR2.genus + 1
            count += 1


# ---------------------------------------------------------------------------
# divisor classes and principality
# ---------------------------------------------------------------------------


def test_is_principal_with_witness():
    W0 = C2.branch_point(Fraction(0))
    inf = C2.infinity()
    D = Divisor({W0: 2, inf: -2})
    ok, wit = is_principal(C2, D)
    assert ok
    assert C2.divisor_of(wit) == D
    ok0, wit0 = is_principal(C2, Divisor())
    assert ok0
    assert repr(wit0) == "1"


def test_is_principal_rejects():
    W0 = C2.branch_point(Fraction(0))
    W1 = C2.branch_point(Fraction(1))
    inf = C2.infinity()
    # degree nonzero
    assert is_principal(C2, Divisor({W0: 1}))[0] is False
    # degree zero but not principal: W0 - inf is 2-torsion, not trivial
    assert is_principal(C2, Divisor({W0: 1, inf: -1}))[0] is False
    assert is_principal(C2, Divisor({W0: 1, W1: -1}))[0] is False


def test_class_eq_two_torsion():
    W0 = C2.branch_point(Fraction(0))
    inf = C2.infinity()
    assert class_eq(C2, Divisor({W0: 2}), Divisor({inf: 2}))
    assert not class_eq(C2, Divisor({W0: 1}), Divisor({inf: 1}))


def test_class_eq_is_equivalence_random():
    rng = random.Random(21)
    P = CR2.point(Fraction(-1), y=Fraction(12))
    ds = [_random_stable_divisor(CR2, rng, P) for _ in range(8)]
    for D in ds:
        assert class_eq(CR2, D, D)
    for D, E in combinations(ds, 2):
        if D.degree() != E.degree():
            continue
        assert class_eq(CR2, D, E) == class_eq(CR2, E, D)
        # translation invariance
        T = Divisor.of_point(CR2.infinity(), 1)
        assert class_eq(CR2, D + T, E + T) == class_eq(CR2, D, E)


def test_reduce_weierstrass():
    W0 = C2.branch_point(Fraction(0))
    W1 = C2.branch_point(Fraction(1))
    inf = C2.infinity()
    D = Divisor({W0: 5, W1: -2, inf: 1})
    R = reduce_weierstrass(C2, D)
    assert class_eq(C2, D, R)
    assert R[W0] == 1 and R[W1] == 0
    assert R.degree() == D.degree()


def test_divisor_class_arithmetic():
    W0 = C2.branch_point(Fraction(0))
    inf = C2.infinity()
    a = DivisorClass(C2, Divisor({W0: 1}))
    b = DivisorClass(C2, Divisor({inf: 1}))
    assert (a + b).degree() == 2
    assert (a - b).degree() == 0
    assert (2 * a).degree() == 2
    assert a == DivisorClass(C2, Divisor({W0: 3, inf: -2}))  # 2W0 ~ 2inf
    assert a != b
    assert (2 * a) == (2 * b)
    with pytest.raises(TypeError):
        hash(a)


def test_canonical_class_squares():
    K = canonical_class(C2)
    assert K.degree() == 2
    assert K.h0() == 2


# ---------------------------------------------------------------------------
# theta characteristics
# ---------------------------------------------------------------------------


def test_branch_roots():
    assert list(branch_roots(C2)) == [Fraction(i) for i in range(5)]


def test_census_genus_2():
    census = theta_characteristics(C2)
    assert len(census) == 16
    odd = [t for t in census if t.is_odd]
    assert len(odd) == 6
    assert all(t.h0 == 1 for t in odd)
    even = [t for t in census if not t.is_odd]
    assert len(even) == 10
    assert all(t.h0 == 0 for t in even)
    K = canonical_divisor(C2)
    for t in census:
        assert t.divisor.degree() == 1
        assert class_eq(C2, t.divisor + t.divisor, K)


def test_census_genus_3_counts_and_vanishing_thetanull():
    census = theta_characteristics(C3)
    assert len(census) == 64
    odd = sum(1 for t in census if t.is_odd)
    assert odd == 28
    assert len(census) - odd == 36
    # the empty subset gives 2*inf: an even theta with two sections
    t0 = next(t for t in census if t.subset == ())
    assert t0.h0 == 2 and t0.parity == "even"
    basis = rr_space(C3, t0.divisor)
    assert [repr(b) for b in basis] == ["1", "x"]


@pytest.mark.parametrize("g, seed", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])
def test_census_matches_closed_form_on_random_split_curves(g, seed):
    # Mumford, Tata Lectures on Theta II, ch. IIIa: for the subset
    # representative S, h0 = (g - 1 - |S|)//2 + 1 when |S| < g, else 0
    roots = random.Random(100 * g + seed).sample(range(-6, 7), 2 * g + 1)
    C = HyperellipticCurve(polyq.from_roots([Fraction(r) for r in roots]))
    census = theta_characteristics(C)
    assert len(census) == 2 ** (2 * g)
    for t in census:
        k = len(t.subset)
        assert t.h0 == ((g - 1 - k) // 2 + 1 if k < g else 0), t.subset
    assert sum(t.is_odd for t in census) == 2 ** (g - 1) * (2 ** g - 1)


def test_census_pairwise_distinct_genus_2():
    census = theta_characteristics(C2)
    for s, t in combinations(census, 2):
        assert not class_eq(C2, s.divisor, t.divisor)


def test_theta_from_subset_validation():
    with pytest.raises(ValueError):
        theta_from_subset(C2, (0, 0))
    with pytest.raises(ValueError):
        theta_from_subset(C2, (0, 1, 2))  # size above g
    with pytest.raises(ValueError):
        theta_from_subset(C2, (9,))


def test_parity_representatives():
    ev, od = parity_representatives(C2)
    assert ev.h0 == 0 and od.h0 == 1
    assert ev.subset == (0, 1) and od.subset == ()
    ev3, od3 = parity_representatives(C3)
    assert ev3.h0 == 0
    assert od3.h0 % 2 == 1
    # resolves the g >= 3 ambiguity: the first even-parity class in census
    # order has sections, the representative must not
    t0 = theta_from_subset(C3, ())
    assert t0.parity == "even" and t0.h0 == 2
    assert ev3.subset != ()
