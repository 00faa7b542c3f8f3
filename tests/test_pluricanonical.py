"""Rank pairs, very-ampleness thresholds, models, and superpoint families."""

import random
import sys
from fractions import Fraction
from math import isqrt

import pytest

from plurisusy import pluricanonical, polyq, riemann_roch
from plurisusy.curve import (Divisor, HyperellipticCurve,
                             UnrepresentableSupportError, standard_curve)
from plurisusy.pluricanonical import (SuperPointFamily, ThresholdCell,
                                      _effective_points, build_model,
                                      canonical_nonembedding_demo,
                                      criterion_local_freeness, minimal_nu,
                                      pluri_canonical_rank,
                                      pushforward_over_superpoint,
                                      random_deformation, summand_powers,
                                      threshold_table, verify_embedding,
                                      very_ample_check, witness_str)
from plurisusy.riemann_roch import (DivisorClass, canonical_class,
                                    canonical_divisor, class_eq, h0, h1,
                                    parity_representatives, rr_space,
                                    semi_reduce, theta_from_subset)
from plurisusy.series import TSeries
from plurisusy.supercurve import RankPair, make_split_supercurve

C2 = standard_curve(2)
EV2, OD2 = parity_representatives(C2)
X2E = make_split_supercurve(C2, EV2)
X2O = make_split_supercurve(C2, OD2)
XW0 = make_split_supercurve(C2, theta_from_subset(C2, (0,)))


def _supercurves(g):
    curve = standard_curve(g)
    ev, od = parity_representatives(curve)
    return make_split_supercurve(curve, ev), make_split_supercurve(curve, od)


# ---------------------------------------------------------------------------
# rank pairs
# ---------------------------------------------------------------------------


def test_rank_genus2_nu5():
    r = pluri_canonical_rank(X2E, 5)
    assert r.rank == RankPair(5, 4)
    assert r.hypotheses_hold
    assert str(r).startswith("5|4")


def test_rank_low_nu_point_base():
    r = pluri_canonical_rank(X2E, 1)
    assert r.rank == RankPair(0, 2)
    assert not r.hypotheses_hold
    assert "hypotheses fail" in r.note
    assert str(r).startswith("0|2")


def test_rank_nu3():
    r = pluri_canonical_rank(X2E, 3)
    assert r.rank == RankPair(3, 2)


def test_rank_rejects_bad_nu():
    with pytest.raises(ValueError):
        pluri_canonical_rank(X2E, 0)


def test_rank_independent_of_theta_for_high_nu():
    for nu in (3, 4, 5):
        assert (pluri_canonical_rank(X2E, nu).rank
                == pluri_canonical_rank(X2O, nu).rank
                == pluri_canonical_rank(XW0, nu).rank)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("nu", [3, 4, 5, 6])
def test_rank_against_closed_form(g, nu):
    """Two derivations must agree: exact rr_space kernels versus the
    Riemann-Roch closed form deg - g + 1 (valid since both summand degrees
    exceed 2g - 2 for nu >= 3)."""
    Xe, _ = _supercurves(g)
    r = pluri_canonical_rank(Xe, nu)
    lo = (nu - 1) * (g - 1)   # h0 of the nu-th power
    hi = nu * (g - 1)         # h0 of the (nu+1)-st power
    expect = RankPair(lo, hi) if nu % 2 == 0 else RankPair(hi, lo)
    assert r.rank == expect
    assert r.hypotheses_hold


@pytest.mark.parametrize("nu", [3, 4, 5, 6])
def test_rank_formula_annotation(nu):
    """The printed companion formula pair differs from the derived rank in
    the (nu+1)-summand slot for every nu >= 2, so the annotation must
    always be flagged."""
    r = pluri_canonical_rank(X2E, nu)
    assert r.formula_differs
    assert "alt formula" in str(r)
    # the nu-summand slot of the companion formula agrees with the rank
    g = 2
    f_lo = (nu - 1) * g - nu + 1
    if nu % 2 == 0:
        assert r.formula.even == f_lo == r.rank.even
    else:
        assert r.formula.odd == f_lo == r.rank.odd


# ---------------------------------------------------------------------------
# local freeness certificates
# ---------------------------------------------------------------------------


def test_local_freeness_high_power_passes():
    E = 3 * X2E.L
    cert = criterion_local_freeness(X2E, E, E_parity="odd")
    assert cert.passed
    assert cert.h1_E == cert.h1_EL == 0
    assert cert.rank == RankPair(h0(C2, semi_reduce(C2, (4 * X2E.L).rep)),
                                 h0(C2, semi_reduce(C2, (3 * X2E.L).rep)))


def test_local_freeness_trivial_class_fails():
    O = DivisorClass(C2, Divisor())
    cert = criterion_local_freeness(X2E, O)
    assert not cert.passed
    assert cert.h1_E == C2.genus  # h1(O) = g


def test_local_freeness_canonical_fails():
    K = canonical_class(C2)
    cert = criterion_local_freeness(X2E, K)
    assert not cert.passed
    assert cert.h1_E == 1


def non_susy_supercurves():
    """Split supercurves with 2L not ~ K: y^2 = x^5 + 1 with L = (0, 1),
    y^2 = x^7 + 1 with L = 2 (0, 1) and y^2 = x^9 + 4 with
    L = (0, 2) + 2 inf.  (0, y0) - inf has odd order, as the divisor of
    y - y0 is (2g + 1)((0, y0) - inf), so none of these L is a theta."""
    out = []
    for g, c, L in ((2, 1, {1: 1}), (3, 1, {1: 2}), (4, 2, {1: 1, 0: 2})):
        C = HyperellipticCurve(polyq.poly([c * c] + [0] * (2 * g) + [1]))
        P = (C.infinity(), C.point(0, c))
        out.append(make_split_supercurve(
            C, Divisor({P[i]: m for i, m in L.items()})))
    return out


def _mixed_supercurves():
    """Classes a P + b iota(P) + (g - 1 - a - b) inf on y^2 = x^(2g+1) + 4
    with P = (0, 2), g = 2..4, |a|, |b| <= 1: thetas and non-thetas."""
    for g in (2, 3, 4):
        C = HyperellipticCurve(polyq.poly([4] + [0] * (2 * g) + [1]))
        P, inf = C.point(0, 2), C.infinity()
        for a in range(-1, 2):
            for b in range(-1, 2):
                yield make_split_supercurve(C, Divisor(
                    {P: a, P.conjugate(): b, inf: g - 1 - a - b}))


def _split_theta_supercurves():
    """Every theta of three seeded split curves per genus 2..5."""
    rng = random.Random(28)
    for g in (2, 3, 4, 5):
        for _ in range(3):
            roots = rng.sample(range(-8, 9), 2 * g + 1)
            C = HyperellipticCurve(polyq.from_roots(
                [Fraction(r) for r in roots]))
            for theta in riemann_roch.theta_characteristics(C):
                yield make_split_supercurve(C, theta)


def test_rank_certificate_matches_the_reduction_oracle():
    """The degree-read certificate and report of pluri_canonical_rank
    against criterion_local_freeness(X, nu L), which reduces every h0 and
    takes h1 by duality, for nu = 1..8."""
    seen = {True: 0, False: 0}
    cases = (list(_split_theta_supercurves()) + list(_mixed_supercurves())
             + non_susy_supercurves())
    for X in cases:
        g = X.genus
        for nu in range(1, 9):
            report, cert = pluricanonical._certified_rank(X, nu)
            ref = criterion_local_freeness(
                X, nu * X.L, "even" if nu % 2 == 0 else "odd")
            assert cert == ref, (X, nu)
            k_even, k_odd = summand_powers(nu)
            alt = {nu: (nu - 1) * g - nu + 1,
                   nu + 1: (2 * nu - 1) * g - 2 * nu + 1}
            formula = RankPair(alt[k_even], alt[k_odd])
            if ref.passed:
                want = pluricanonical.RankReport(nu, ref.rank, True, formula)
            else:
                want = pluricanonical.RankReport(
                    nu, RankPair(ref.h0_E, ref.h0_EL), False, formula,
                    note="hypotheses fail; point-base value")
            assert report == want == pluri_canonical_rank(X, nu), (X, nu)
            seen[X.susy] += 1
    assert seen[True] >= 1800 and seen[False] >= 100, seen


@pytest.mark.parametrize("X", non_susy_supercurves(),
                         ids=["x^5+1", "x^7+1", "x^9+4"])
def test_rank_on_supercurves_that_are_not_susy(X):
    # h0(L^2) = g - 1 off the theta classes, so nu = 2 already passes;
    # at nu = 1 h1(L) = h0(L) >= 1, as each L here is effective
    g, h0_L = X.genus, h0(X.curve, X.L.rep)
    assert not X.susy and h0_L == (2 if g == 4 else 1)
    r1 = pluri_canonical_rank(X, 1)
    assert r1.rank == RankPair(h0_L, g - 1) and not r1.hypotheses_hold
    assert str(r1) == f"{h0_L}|{g - 1} (hypotheses fail; point-base value)"
    r2 = pluri_canonical_rank(X, 2)
    assert r2.rank == RankPair(g - 1, 2 * g - 2) and r2.hypotheses_hold
    assert r2.note == ""
    for nu in (3, 4, 5):
        lo, hi = (nu - 1) * (g - 1), nu * (g - 1)
        r = pluri_canonical_rank(X, nu)
        assert r.rank == (RankPair(lo, hi) if nu % 2 == 0
                          else RankPair(hi, lo))
        assert r.hypotheses_hold
    demo = canonical_nonembedding_demo(X)
    assert (demo.rank, demo.h0_L, demo.obstruction) == (r1.rank, h0_L, None)


# ---------------------------------------------------------------------------
# very-ampleness
# ---------------------------------------------------------------------------


def test_very_ample_rejects_low_nu():
    with pytest.raises(ValueError):
        very_ample_check(X2E, 2)


def test_very_ample_g2_boundary():
    r3 = very_ample_check(XW0, 3)
    assert not r3.passed and not r3.condition1_ok
    r4 = very_ample_check(XW0, 4)
    assert not r4.passed
    P, Q = r4.witness
    assert P.at_infinity and Q.at_infinity
    assert witness_str(r4.witness) == "x=y=Inf"
    r5 = very_ample_check(XW0, 5)
    assert r5.passed and r5.witness is None


def test_very_ample_g3_split_by_parity():
    Xe, Xo = _supercurves(3)
    assert very_ample_check(Xe, 3).passed
    ro = very_ample_check(Xo, 3)
    assert not ro.passed
    assert ro.witness is not None


def test_very_ample_witness_confirmed_by_rr():
    """Failure witnesses (P, Q) must make K - nu L + P + Q effective."""
    for X, nu in ((XW0, 3), (XW0, 4), (_supercurves(3)[1], 3)):
        rep = very_ample_check(X, nu)
        assert not rep.passed
        P, Q = rep.witness
        curve = X.curve
        K = canonical_class(curve).rep
        D = K - nu * X.L.rep + Divisor.of_point(P) + Divisor.of_point(Q)
        assert h0(curve, semi_reduce(curve, D)) >= 1


def test_non_theta_class_with_non_branch_support():
    """On y^2 = x^5 + 1, div(y - 1) = 5Q - 5 inf with Q = (0, 1), so
    L = 2Q + iota Q - 2 inf ~ Q is not a theta characteristic, and its
    powers are represented by multiples of Q alone."""
    C = HyperellipticCurve(polyq.poly([1, 0, 0, 0, 0, 1]))
    Q = C.point(Fraction(0), y=Fraction(1))
    inf = C.infinity()
    assert C.divisor_of(C.y_fn() - C.one_fn()) == Divisor({Q: 5, inf: -5})
    L = Divisor({Q: 2, Q.conjugate(): 1, inf: -2})
    X = make_split_supercurve(C, L)
    assert not X.susy
    for k in range(1, 8):
        assert semi_reduce(C, k * L) == Divisor({Q: k})
    K = canonical_class(C).rep
    for nu in (3, 4, 5, 6):
        rep = very_ample_check(X, nu)
        assert rep.passed == (nu >= 5)
        if rep.witness is not None:
            P1, P2 = rep.witness
            D = K - nu * L + Divisor.of_point(P1) + Divisor.of_point(P2)
            assert h0(C, D) >= 1
    W = C.branch_point(Fraction(-1))
    samples = [Q, Q.conjugate(), inf, W, C.point(Fraction(2)),
               C.point(Fraction(2)).conjugate()]
    for nu in (5, 6):
        M = build_model(X, nu)
        assert M.cleared_divisors["even"] == Divisor({Q: 6})
        assert verify_embedding(M, samples=samples).all_pass
        assert verify_embedding(M, samples=30, seed=1).all_pass


def test_very_ample_passes_above_threshold():
    for g, nu in ((2, 5), (2, 6), (3, 4), (4, 3), (5, 3), (6, 3)):
        Xe, Xo = _supercurves(g)
        assert very_ample_check(Xe, nu).passed
        assert very_ample_check(Xo, nu).passed


def reference_effective_points(curve, rep, degree):
    """The witness search that very_ample_check used before it read the
    reduced divisor: the zeros of the first basis section of L(rep) whose
    divisor has rational support.  Raises UnrepresentableSupportError
    when no basis section has one."""
    if h0(curve, rep) == 0:
        return None
    T = None
    for b in rr_space(curve, rep):
        try:
            T = curve.divisor_of(b) + rep
        except UnrepresentableSupportError:
            continue
        break
    if T is None:
        raise UnrepresentableSupportError(
            "no section of the class has representable zeros")
    if not (T.is_effective() and T.degree() == degree):
        raise RuntimeError("section divisor is not an effective divisor "
                           "of the class degree")
    pts = []
    for P, n in T.items():
        pts.extend([P] * n)
    return pts


def _residual_reps(X, nu):
    """(m, npoints, d, rep) of each residual class very_ample_check
    decides for the nu-th power: rep is L^m - K + d inf, semi-reduced."""
    curve = X.curve
    g = curve.genus
    out = []
    for m, npoints in ((nu, 2), (summand_powers(nu)[1], 1)):
        d = (2 * g - 2) - m * (g - 1) + npoints
        if d >= 0:
            rep = semi_reduce(curve, m * X.L.rep - canonical_divisor(curve)
                              + Divisor.of_point(curve.infinity(), d))
            out.append((m, npoints, d, rep))
    return out


def _random_non_theta(rng, g):
    """A split supercurve on y^2 = v(x)^2 + x^(2g+1) for a random v of
    degree at most g, and L a random combination of the rational points
    with |x| <= 6 (and infinity) that is not a theta characteristic.
    Since div(y - v) = (2g+1)((0, v(0)) - inf), the residual classes
    often reduce to rational points, and as often they do not."""
    while True:
        v = polyq.poly([rng.choice((-3, -2, -1, 1, 2, 3))]
                       + [rng.randint(-3, 3) for _ in range(g)])
        f = polyq.add(polyq.mul(v, v), polyq.from_roots([0] * (2 * g + 1)))
        if polyq.is_squarefree(f):
            break
    C = HyperellipticCurve(f)
    points = []
    for x in range(-6, 7):
        fx = polyq.eval_at(f, x)
        if fx > 0 and isqrt(int(fx)) ** 2 == fx:
            points.append(C.point(x, isqrt(int(fx))))
    while True:
        L = Divisor()
        for _ in range(rng.randint(1, 3)):
            P = rng.choice(points)
            if rng.random() < 0.5:
                P = P.conjugate()
            L = L + Divisor.of_point(P, rng.choice((-2, -1, 1, 2)))
        L = L + Divisor.of_point(C.infinity(), g - 1 - L.degree())
        X = make_split_supercurve(C, L)
        if not X.susy:
            return X


def _witness_in_class(X, nu, report):
    """The witness of a failed check makes the residual class K - L^m +
    x (+ y) of the first failed condition equal to d inf."""
    curve = X.curve
    m, npoints, d, _ = _residual_reps(X, nu)[0 if not report.condition1_ok
                                               else -1]
    P, Q = report.witness
    pts = [P, Q] if npoints == 2 else [P]
    D = canonical_divisor(curve) - m * X.L.rep
    for R in pts:
        D = D + Divisor.of_point(R)
    return class_eq(curve, D, Divisor.of_point(curve.infinity(), d))


@pytest.mark.parametrize("L_of_P", [lambda P: {P: 1},
                                    lambda P: {P: 2, P.conjugate(): -1}],
                         ids=["P", "2P-iotaP"])
def test_very_ample_irrational_witness_is_a_fail(L_of_P):
    """On y^2 = x(x-1)(x-2)(x-3)(x+7) the residual classes of nu = 3, 4
    are effective only on a pair with irrational x-coordinates: the
    verdict is FAIL without a witness, and u names the pair."""
    C = HyperellipticCurve(polyq.from_roots([0, 1, 2, 3, -7]))
    P = C.point(-1, 12)
    X = make_split_supercurve(C, Divisor(L_of_P(P)))
    assert not X.susy
    for nu in (3, 4):
        rep = very_ample_check(X, nu)
        assert not rep.passed and not rep.condition1_ok
        assert rep.witness is None
        assert "irrational roots of" in rep.note
        with pytest.raises(UnrepresentableSupportError):
            for _m, npoints, _d, D in _residual_reps(X, nu):
                reference_effective_points(C, D, npoints)
        with pytest.raises(ValueError, match="not very ample"):
            build_model(X, nu)
    for nu in (5, 6):
        rep = very_ample_check(X, nu)
        assert rep.passed and rep.witness is None


def test_irrational_witness_polynomial():
    """For L = P = (-1, 12) and nu = 3 the residual class is 3P - inf.
    With w the quadratic whose graph meets the curve to order 3 at P,
    div(y - w) = 3P + D' - 5 inf, so 3P - inf ~ iota D', and the
    x-coordinates of D' are the roots of (f - w^2)/(x + 1)^3."""
    C = HyperellipticCurve(polyq.from_roots([0, 1, 2, 3, -7]))
    P = C.point(-1, 12)
    f1, f2 = polyq.shift(C.f, -1)[1:3]
    b = Fraction(f1) / 24  # coefficients may be ints: keep / exact
    c = (f2 - b * b) / 24
    w = polyq.shift(polyq.poly([12, b, c]), 1)  # 12 + b t + c t^2, t = x + 1
    q = polyq.exact_div(polyq.sub(C.f, polyq.mul(w, w)),
                        polyq.from_roots([-1] * 3))
    roots, rest = polyq.rational_roots(q)
    assert not roots and polyq.deg(rest) == 2
    note = very_ample_check(make_split_supercurve(C, Divisor({P: 1})), 3).note
    assert note.endswith(f"irrational roots of {polyq.format_poly(rest)}")


def test_very_ample_random_non_theta_against_reference():
    """Seeded non-theta L at g = 2..4, nu = 3..5: very_ample_check never
    raises, its residual points equal the basis search wherever that
    finds representable zeros, and each witness lies in its class."""
    rng = random.Random(13)
    raised = irrational = failed = 0
    for _ in range(120):
        g, nu = rng.randint(2, 4), rng.randint(3, 5)
        X = _random_non_theta(rng, g)
        curve = X.curve
        report = very_ample_check(X, nu)
        for _m, npoints, _d, rep in _residual_reps(X, nu):
            new = _effective_points(curve, rep)
            try:
                old = reference_effective_points(curve, rep, npoints)
            except UnrepresentableSupportError:
                raised += 1
                assert new is not None and polyq.deg(new[1]) > 0
                continue
            assert (new is None) == (old is None)
            if old is not None:
                assert new == (old, polyq.ONE)
        if not report.passed:
            failed += 1
            if report.witness is None:
                irrational += 1
                assert "irrational roots of" in report.note
            else:
                assert _witness_in_class(X, nu, report)
    # the batch reaches every branch: rational and irrational witnesses
    assert raised > 0 and irrational > 0 and failed > irrational


@pytest.fixture
def without_bases(monkeypatch):
    """A switch after which rr_space and divisor_of raise whenever they
    are called from inside very_ample_check."""
    depth = []
    check = pluricanonical.very_ample_check

    def guard(fn):
        def call(*args, **kwargs):
            if depth:
                raise AssertionError(f"{fn.__name__} called by "
                                     f"very_ample_check")
            return fn(*args, **kwargs)
        return call

    def checked(X, nu):
        depth.append(nu)
        try:
            return check(X, nu)
        finally:
            depth.pop()

    def switch():
        monkeypatch.setattr(pluricanonical, "rr_space", guard(rr_space))
        monkeypatch.setattr(riemann_roch, "rr_space", guard(rr_space))
        monkeypatch.setattr(HyperellipticCurve, "divisor_of",
                            guard(HyperellipticCurve.divisor_of))
        monkeypatch.setattr(pluricanonical, "very_ample_check", checked)
        monkeypatch.setattr(sys.modules[__name__], "very_ample_check",
                            checked)
    return switch


def test_very_ample_check_builds_no_basis(without_bases):
    want = [(str(c), c.to_json()) for c in threshold_table(4, 6)]
    without_bases()
    assert [(str(c), c.to_json()) for c in threshold_table(4, 6)] == want
    test_non_theta_class_with_non_branch_support()


# ---------------------------------------------------------------------------
# minimal nu and the threshold table
# ---------------------------------------------------------------------------


def test_minimal_nu_values():
    assert minimal_nu(2) == 5
    assert minimal_nu(3) == 4
    assert minimal_nu(4) == 3
    assert minimal_nu(5) == 3
    assert minimal_nu(6) == 3


def test_minimal_nu_this_theta():
    assert minimal_nu(3, quantifier="this-theta", theta="even") == 3
    assert minimal_nu(3, quantifier="this-theta", theta="odd") == 4
    assert minimal_nu(2, quantifier="this-theta",
                      theta=theta_from_subset(C2, (0,))) == 5


def test_minimal_nu_validation():
    with pytest.raises(ValueError):
        minimal_nu(1)
    with pytest.raises(ValueError):
        minimal_nu(3, quantifier="this-theta")
    with pytest.raises(ValueError):
        minimal_nu(3, quantifier="some-thetas")


@pytest.mark.parametrize("theta", ["EVEN", "", 0, 1.5, (0,)])
def test_minimal_nu_names_the_thetas_it_accepts(theta):
    with pytest.raises(ValueError, match="'even', 'odd' or a "
                                         "ThetaCharacteristic, got "):
        minimal_nu(2, "this-theta", theta)


def test_threshold_table_grid():
    cells = threshold_table(6, 6)
    assert len(cells) == 20
    for c in cells:
        should_pass = (c.g >= 4 or (c.g == 3 and c.nu >= 4)
                       or (c.g == 2 and c.nu >= 5))
        assert c.all_pass == should_pass, (c.g, c.nu)
        if not c.all_pass:
            assert c.witness is not None


def test_threshold_mixed_cell():
    cells = {(c.g, c.nu): c for c in threshold_table(3, 3)}
    c33 = cells[(3, 3)]
    assert c33.mixed
    assert c33.even_pass and not c33.odd_pass
    assert c33.verdict() == "FAIL(all-thetas): even PASS, odd FAIL"
    assert cells[(2, 3)].verdict() == "FAIL"


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_build_model_g2_nu5():
    M = build_model(XW0, 5)
    assert M.ambient == RankPair(4, 4)
    assert [repr(s) for s in M.even_sections] == ["1", "x", "x^2", "x^3", "y"]
    assert [repr(s) for s in M.odd_sections] == ["1", "x", "x^2", "(y)/(x)"]
    assert repr(M.cleared_divisors["even"]) == "6*Inf"
    assert repr(M.cleared_divisors["odd"]) == "(0, 0) + 4*Inf"


def test_build_model_g4_nu3():
    Xe, _ = _supercurves(4)
    M = build_model(Xe, 3)
    assert M.ambient == RankPair(8, 6)


def test_build_model_refuses_below_threshold():
    with pytest.raises(ValueError):
        build_model(XW0, 4)


def test_build_model_sections_match_cleared_divisors():
    M = build_model(XW0, 5)
    for key, sections in (("even", M.even_sections),
                          ("odd", M.odd_sections)):
        D = M.cleared_divisors[key]
        for s in sections:
            assert (C2.divisor_of(s) + D).is_effective()


def test_verify_embedding_passes():
    M = build_model(XW0, 5)
    rep = verify_embedding(M, samples=40, seed=2)
    assert rep.all_pass
    assert rep.summary() == "all checks pass"
    assert rep.pairs_checked == 40


def test_verify_embedding_deterministic():
    M = build_model(XW0, 5)
    a = verify_embedding(M, samples=15, seed=9)
    b = verify_embedding(M, samples=15, seed=9)
    assert a.pairs_checked == b.pairs_checked
    assert a.points_checked == b.points_checked
    assert a.all_pass and b.all_pass


def test_verify_embedding_explicit_points():
    M = build_model(XW0, 5)
    pts = [C2.infinity(), C2.branch_point(Fraction(0)),
           C2.point(Fraction(-1)), C2.point(Fraction(5), sign=-1)]
    rep = verify_embedding(M, samples=pts)
    assert rep.all_pass
    assert rep.points_checked == 4
    assert rep.pairs_checked == 6  # all unordered pairs


def test_verify_embedding_separates_conjugate_points():
    # the even coordinates of this model come from 2K, which factors
    # through the involution, so P and its conjugate share a value row
    M = build_model(X2E, 3, force=True)
    P = C2.point(Fraction(5))  # y = 2*sqrt(30)
    Q = C2.point(Fraction(-1))  # y in Q(sqrt(-30))
    rep = verify_embedding(M, samples=[P, P.conjugate(), Q, C2.infinity()])
    assert rep.pair_failures == [(P, P.conjugate())]
    assert rep.pairs_checked == 6


def test_verify_embedding_expands_regular_points_without_valuations(
        monkeypatch):
    # at a non-branch point off the cleared divisors, verify_embedding
    # builds its rows in integers, and at infinity, where every section
    # of these models has its pole, it reads them off coefficients: no
    # point computes a valuation
    rng = random.Random(31)
    C3 = HyperellipticCurve(polyq.from_roots(
        [Fraction(r) for r in (-5, -3, -2, 0, 1, 4, 6)]))
    models = [build_model(XW0, 5),
              build_model(make_split_supercurve(
                  C3, theta_from_subset(C3, (1, 4))), 4)]
    reached = []
    real = HyperellipticCurve.valuation

    def spy(self, fn, P):
        reached.append(P)
        return real(self, fn, P)

    monkeypatch.setattr(HyperellipticCurve, "valuation", spy)
    for M in models:
        C = M.curve
        pts = [C.infinity()]
        while len(pts) < 16:
            x0 = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            if polyq.eval_at(C.f, x0) != 0:
                P = C.point(x0, sign=rng.choice((1, -1)))
                if P not in pts:
                    pts.append(P)
        reached.clear()
        rep = verify_embedding(M, samples=pts)
        assert rep.all_pass and rep.points_checked == 16
        assert reached == []


def test_theta_models_are_built_and_verified_without_series(monkeypatch):
    # bases on the branch locus and rows at infinity and the branch points
    # are read off polynomials: no expansion anywhere, nor a kernel
    rng = random.Random(2204)
    cases = []
    for g in range(2, 6):
        for lc in (1, Fraction(-3, 2)):
            C = HyperellipticCurve(polyq.scale(polyq.from_roots(
                [Fraction(r) for r in rng.sample(range(-7, 8), 2 * g + 1)]),
                lc))
            points = [C.infinity()] + C.rational_branch_points()
            while len(points) < 2 * g + 8:
                x0 = Fraction(rng.randint(-30, 30), rng.randint(1, 5))
                if polyq.eval_at(C.f, x0) and C.point(x0) not in points:
                    points.append(C.point(x0, sign=rng.choice((1, -1))))
            subsets = [tuple(rng.sample(range(2 * g + 1), k))
                       for k in range(g + 1)]
            cases.append((C, subsets, points))

    def refuse(*args, **kwargs):
        raise AssertionError("a series or kernel was built")

    monkeypatch.setattr(TSeries, "__init__", refuse)
    monkeypatch.setattr(riemann_roch, "kernel_basis", refuse)
    for C, subsets, points in cases:
        for subset in subsets:
            X = make_split_supercurve(C, theta_from_subset(C, subset))
            for nu in (3, 4):
                rep = verify_embedding(build_model(X, nu, force=True),
                                       samples=points)
                assert rep.points_checked == len(points)
                if very_ample_check(X, nu).passed:
                    assert rep.all_pass, (C, subset, nu)


def test_verify_embedding_reads_no_series_at_regular_points(monkeypatch):
    # a fallback to laurent_at would keep every verdict and lose the
    # integer rows' speed, so the calls are counted: none at regular
    # points, and none at infinity, whose rows are coefficients
    C3 = standard_curve(3)
    M = build_model(_supercurves(3)[0], 4)
    calls = []
    real = HyperellipticCurve.laurent_at

    def spy(self, fn, P, nterms=1):
        calls.append(P)
        return real(self, fn, P, nterms)

    monkeypatch.setattr(HyperellipticCurve, "laurent_at", spy)
    regular = [C3.point(Fraction(k, 3), sign=(-1) ** k)
               for k in range(-20, 40, 5) if k % 3]
    assert verify_embedding(M, samples=regular).all_pass
    assert calls == []
    rep = verify_embedding(M, samples=regular + [C3.infinity()])
    assert rep.all_pass and rep.points_checked == len(regular) + 1
    assert calls == []


def test_verify_embedding_rejects_points_off_the_curve():
    M = build_model(XW0, 5)
    P = standard_curve(3).point(Fraction(7))
    with pytest.raises(ValueError, match=rf"sample point \({P.x}, "):
        verify_embedding(M, samples=[C2.infinity(), P])
    with pytest.raises(ValueError, match="Inf is not on"):
        verify_embedding(M, samples=[standard_curve(3).infinity()])
    # a point built without the curve's check, with y^2 != f(x)
    Q = C2.point(Fraction(5))
    bad = type(Q)(C2, Q.x, Q.y * 2)
    with pytest.raises(ValueError, match="is not on HyperellipticCurve"):
        verify_embedding(M, samples=[Q, bad])


@pytest.mark.parametrize("samples", [0, -3, []])
def test_verify_embedding_needs_a_sample(samples):
    M = build_model(XW0, 5)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify_embedding(M, samples=samples)


def test_forced_model_fails_at_witness():
    rep4 = very_ample_check(XW0, 4)
    P, Q = rep4.witness
    M4 = build_model(XW0, 4, force=True)
    assert M4.ambient == RankPair(2, 4)
    check = verify_embedding(M4, samples=[P, Q], seed=0)
    assert not check.all_pass
    assert P in check.tangent_failures  # P = Q = infinity


# ---------------------------------------------------------------------------
# superpoint families
# ---------------------------------------------------------------------------


def test_family_validates_pole_support():
    x = C2.x_fn()
    with pytest.raises(ValueError):
        # pole above x = 2 is away from the chart overlap {W0, inf}
        SuperPointFamily(X2E, (x - 2).inverse())
    # pole at W0 and infinity is fine
    SuperPointFamily(X2E, C2.y_fn() / x)


def test_family_rejects_irrational_poles():
    from plurisusy import polyq
    den = polyq.poly([Fraction(-2), Fraction(0), Fraction(1)])  # x^2 - 2
    fn = C2.function(polyq.ONE, polyq.ZERO, den).inverse().inverse()
    with pytest.raises(ValueError):
        SuperPointFamily(X2E, fn)


def reference_overlap_regular(curve, W, h):
    """The pole test SuperPointFamily used before it compared den with a
    power of x - x_W: no irrational root of den, and a pole above a
    rational root only at W, by exact valuation."""
    if h.is_zero():
        return True
    roots, cof = polyq.rational_roots(h.den)
    if polyq.deg(cof) > 0:
        return False
    for r, _m in roots:
        if polyq.eval_at(curve.f, r) == 0:
            above = [curve.branch_point(r)]
        else:
            above = [curve.point(r, sign=1), curve.point(r, sign=-1)]
        if any(curve.valuation(h, P) < 0 and P != W for P in above):
            return False
    return True


def test_family_overlap_check_matches_reference():
    """Seeded cochains (A + B y) c / (den c), where den and c are products
    of x - x_W, x - 2 (another branch root), x + 5 and x^2 - 2: the
    common factor c cancels, and the family accepts exactly what the
    valuation test accepts."""
    rng = random.Random(17)
    W = SuperPointFamily(X2E, 0).chart_point
    assert W == C2.branch_point(0)
    factors = [polyq.from_roots([0]), polyq.from_roots([2]),
               polyq.from_roots([-5]), polyq.poly([-2, 0, 1])]

    def product():
        out = polyq.ONE
        for fac in factors:
            for _ in range(rng.choice((0, 0, 1, 2))):
                out = polyq.mul(out, fac)
        return out

    verdicts = []
    for _ in range(150):
        A = polyq.poly(rng.randint(-3, 3) for _ in range(4))
        B = polyq.poly(rng.randint(-3, 3) for _ in range(3))
        den, c = product(), product()
        h = C2.function(polyq.mul(A, c), polyq.mul(B, c), polyq.mul(den, c))
        try:
            SuperPointFamily(X2E, h)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == reference_overlap_regular(C2, W, h), h
        verdicts.append(accepted)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_no_rational_branch_point_is_scope_error():
    # y^2 = x^5 - 2 has no rational finite branch point to serve as W
    C = HyperellipticCurve([-2, 0, 0, 0, 0, 1])
    X = make_split_supercurve(C, Divisor({C.infinity(): 1}))
    with pytest.raises(ValueError, match="no rational finite branch point"):
        SuperPointFamily(X, C.x_fn())
    with pytest.raises(ValueError, match="no rational finite branch point"):
        random_deformation(C, seed=0)


def test_random_deformation_seeded():
    h1 = random_deformation(C2, seed=42)
    h2 = random_deformation(C2, seed=42)
    assert h1 == h2
    assert not h1.is_zero()


def test_pushforward_trivial_deformation():
    rep = pushforward_over_superpoint(SuperPointFamily(X2E, 0), 3)
    assert rep.free
    assert rep.rank == RankPair(3, 2)
    assert rep.drop_even == rep.drop_odd == 0


def test_pushforward_free_above_two():
    rng = random.Random(26)
    for g, nu in ((2, 3), (3, 4)):
        Xe, _ = _supercurves(g)
        for _ in range(5):
            h = random_deformation(Xe.curve, rng=rng)
            rep = pushforward_over_superpoint(SuperPointFamily(Xe, h), nu)
            assert rep.free
            assert rep.rank == pluri_canonical_rank(Xe, nu).rank
            assert str(rep) == f"free, rank {rep.rank}"


def test_pushforward_obstruction_at_nu1():
    h = random_deformation(C2, seed=7)
    rep = pushforward_over_superpoint(SuperPointFamily(X2E, h), 1)
    assert not rep.free
    assert (rep.drop_even, rep.drop_odd) == (1, 0)
    assert rep.rank == RankPair(0, 2)
    assert not rep.hypotheses_hold
    assert "not free" in str(rep)


def test_pushforward_guards_low_nu():
    rep = pushforward_over_superpoint(SuperPointFamily(X2E, 0), 2)
    assert rep.to_json() == {"nu": 2, "free": True, "rank": "2|2",
                             "drop_even": 0, "drop_odd": 0,
                             "hypotheses_hold": False}
    assert rep.residues_even == ((0,), (0,)) and rep.residues_odd == ()
    with pytest.raises(ValueError):
        pushforward_over_superpoint(SuperPointFamily(X2E, 0), 0)


# ---------------------------------------------------------------------------
# the first-power demonstration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [2, 3, 4])
def test_nonembedding_demo_even_theta(g):
    Xe, _ = _supercurves(g)
    demo = canonical_nonembedding_demo(Xe)
    assert demo.rank == RankPair(0, g)
    assert demo.h0_L == 0
    assert demo.obstruction is not None
    assert f"P^(-1|{g})" in demo.obstruction


def test_nonembedding_demo_odd_theta_silent():
    demo = canonical_nonembedding_demo(X2O)
    assert demo.rank == RankPair(1, 2)
    assert demo.h0_L == 1
    assert demo.obstruction is None
