"""Split supercurves: susy detection, duality, transitions, moduli."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from plurisusy import polyq
from plurisusy.curve import Divisor, HyperellipticCurve, standard_curve
from plurisusy.riemann_roch import (DivisorClass, canonical_class, class_eq,
                                    parity_representatives,
                                    theta_characteristics, theta_from_subset)
from plurisusy.supercurve import (RankPair, SplitSupercurve,
                                  berezinian_bundle,
                                  deformation_injectivity_dims,
                                  dual_supercurve, is_autodual,
                                  make_split_supercurve, moduli_dimension,
                                  verify_berezinian_transition)

C2 = standard_curve(2)
C3 = standard_curve(3)
CR2 = HyperellipticCurve(polyq.from_roots(
    [Fraction(r) for r in (0, 1, 2, 3, -7)]))
P12 = CR2.point(Fraction(-1), y=Fraction(12))

z = sp.Symbol("z")


def _random_class(curve, rng, extra=()):
    """Random degree-(g-1) class from branch points, infinity, and any
    extra rational points.  Divisors on branch points and infinity alone
    are always theta characteristics (2 W_i ~ 2 inf), so non-theta
    classes need at least one extra point in support."""
    g = curve.genus
    pts = list(curve.rational_branch_points()) + list(extra)
    D = Divisor()
    deg = 0
    for _ in range(g + 2):
        P = pts[rng.randrange(len(pts))]
        D = D + Divisor.of_point(P)
        deg += 1
    D = D + Divisor.of_point(curve.infinity(), (g - 1) - deg)
    return DivisorClass(curve, D)


# ---------------------------------------------------------------------------
# susy structure
# ---------------------------------------------------------------------------


def test_theta_gives_susy():
    th = theta_from_subset(C2, (0,))
    X = make_split_supercurve(C2, th)
    assert X.susy
    assert X.genus == 2
    assert berezinian_bundle(X) == th.cls


def test_all_census_classes_give_susy():
    for t in theta_characteristics(C2):
        assert make_split_supercurve(C2, t).susy


def test_branch_supported_classes_are_thetas():
    # any degree-(g-1) class on branch points and infinity is a theta
    W = C2.rational_branch_points()
    D = Divisor({W[0]: 1, W[1]: 1, W[2]: -1})
    assert make_split_supercurve(C2, D).susy


def test_non_theta_not_susy():
    # a non-branch point: 2P ~ K would force P to be a Weierstrass point
    X = make_split_supercurve(CR2, Divisor.of_point(P12))
    assert not X.susy


def test_degree_validation():
    with pytest.raises(ValueError):
        make_split_supercurve(C2, Divisor({C2.infinity(): 2}))


def test_random_non_theta_classes_not_susy():
    rng = random.Random(22)
    K = canonical_class(CR2)
    hits = 0
    while hits < 20:
        L = _random_class(CR2, rng, extra=(P12, P12.conjugate()))
        if class_eq(CR2, 2 * L.rep, K.rep):
            continue  # accidentally a theta characteristic
        assert not SplitSupercurve(CR2, L).susy
        hits += 1


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_dual_is_involution_random():
    rng = random.Random(23)
    for _ in range(30):
        L = _random_class(CR2, rng, extra=(P12, P12.conjugate()))
        X = SplitSupercurve(CR2, L)
        Xdd = dual_supercurve(dual_supercurve(X))
        assert Xdd.L == X.L


def test_autodual_iff_susy_on_census():
    for t in theta_characteristics(C2):
        X = make_split_supercurve(C2, t)
        assert is_autodual(X) and X.susy
    for t in theta_characteristics(C3):
        assert is_autodual(make_split_supercurve(C3, t))


def test_autodual_fails_off_census():
    rng = random.Random(24)
    K = canonical_class(CR2)
    hits = 0
    while hits < 20:
        L = _random_class(CR2, rng, extra=(P12, P12.conjugate()))
        if class_eq(CR2, 2 * L.rep, K.rep):
            continue
        X = SplitSupercurve(CR2, L)
        assert not is_autodual(X)
        assert is_autodual(X) == X.susy
        hits += 1


def test_dual_swaps_summands():
    # L and K - L: the dual's dual bundle class sums with L to K
    th = theta_from_subset(C3, (0,))
    X = make_split_supercurve(C3, th)
    Xd = dual_supercurve(X)
    K = canonical_class(C3)
    assert (X.L + Xd.L) == K


# ---------------------------------------------------------------------------
# transitions and the Berezinian cocycle
# ---------------------------------------------------------------------------


def test_affine_transition():
    r = verify_berezinian_transition(4 * z + 1, 2)
    assert r.ok
    assert r.superconformal and r.d_factor_ok and r.berezinian_ok


def test_identity_transition():
    r = verify_berezinian_transition(z, 1)
    assert r.ok


def test_transition_wrong_psi_fails():
    # phi' = 2z but psi^2 = 1
    r = verify_berezinian_transition(z ** 2, 1)
    assert not r.superconformal
    assert not r.ok
    assert not r.residual.is_zero()


def test_mobius_transitions_random():
    rng = random.Random(25)
    for _ in range(20):
        c = rng.randint(1, 5)
        d = rng.randint(1, 6)
        e = rng.randint(1, 5)
        a = rng.randint(-4, 4)
        # force ad - bc = e^2 so that phi' = psi^2
        b = sp.Rational(a * d - e * e, c)
        phi = (a * z + b) / (c * z + d)
        psi = e / (c * z + d)
        r = verify_berezinian_transition(phi, psi)
        assert r.ok, (a, b, c, d, e)


def test_transition_berezinian_equals_psi_factor():
    # the report separates the cocycle checks; a sign flip on psi breaks
    # superconformality only through D theta' = psi
    r = verify_berezinian_transition(z, -1)
    assert r.superconformal  # (-1)^2 = 1
    assert r.berezinian_ok is (sp.Integer(-1) == -1)


# ---------------------------------------------------------------------------
# moduli dimensions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_moduli_dimension(g):
    assert moduli_dimension(g) == RankPair(3 * g - 3, 2 * g - 2)


def test_moduli_dimension_rejects_low_genus():
    with pytest.raises(ValueError):
        moduli_dimension(1)


def test_rank_pair_formatting():
    assert str(RankPair(3, 2)) == "3|2"
    assert str(moduli_dimension(5)) == "12|8"
    assert RankPair(1, 2) + RankPair(3, 4) == RankPair(4, 6)
    assert RankPair(1, 2) <= RankPair(1, 3)
    assert not RankPair(2, 2) <= RankPair(1, 3)


def test_deformation_dims():
    for g in (2, 3, 4):
        rep = deformation_injectivity_dims(g)
        assert rep.h1_superconformal == RankPair(3 * g - 3, 2 * g - 2)
        assert rep.h1_tangent.even == 3 * g - 3
        assert rep.injection_possible
