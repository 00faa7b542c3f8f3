"""Superpoint obstructions against an independent Cech elimination.

pushforward_over_superpoint ranks a Serre-duality residue matrix per
summand.  The oracle here decides the same question directly: h a_k,
for a basis a_k of L(D), is reduced against the span of the two chart
section spaces L(D + N inf) + L(D + N W) inside the functions with poles
at most N at W and at infinity.  The drop is the rank of what is left.
Any splitting of h a_k = f0 + f1 over the charts has f0 in L(D + m inf)
and f1 in L(D + m W), m the deepest pole of h, so N >= m is exact; the
oracle takes N = deg D + 2g + 2 + m and checks the answer again at 2N.

The residue matrix itself is checked entry for entry against Laurent
series at infinity (reference_residue_matrix), which it no longer uses.
"""

import random
from fractions import Fraction

import pytest

from plurisusy import pluricanonical, polyq, riemann_roch
from plurisusy.curve import (Divisor, FunctionFieldElement,
                             HyperellipticCurve, standard_curve)
from plurisusy.linalg import ColumnSpace, kernel_basis
from plurisusy.pluricanonical import (SuperPointFamily, _residue_matrix,
                                      pluri_canonical_rank,
                                      pushforward_over_superpoint,
                                      random_deformation, summand_powers)
from plurisusy.riemann_roch import (canonical_divisor, clearing_frame, h0,
                                    h1, parity_representatives, rr_space,
                                    semi_reduce)
from plurisusy.supercurve import make_split_supercurve
from test_exact_scalars import is_exact
from test_pluricanonical import non_susy_supercurves


def _coords(den, n_x, n_y, u):
    """Coefficients of A and B of u over the common denominator den,
    padded to the degree caps of the frame."""
    factor = polyq.exact_div(den, u.den)
    A, B = polyq.mul(u.A, factor), polyq.mul(u.B, factor)
    assert len(A) <= n_x and len(B) <= n_y, "function outside the frame"
    return (list(A) + [Fraction(0)] * (n_x - len(A))
            + list(B) + [Fraction(0)] * (n_y - len(B)))


def _cech_drop_at(curve, D, W, h, N):
    a = rr_space(curve, D)
    if not a or h.is_zero():
        return 0
    inf = curve.infinity()
    _, den, n_x, n_y = clearing_frame(curve, D + Divisor({inf: N, W: N}))
    charts = ColumnSpace(n_x + n_y)
    for b in (rr_space(curve, D + Divisor({inf: N}))
              + rr_space(curve, D + Divisor({W: N}))):
        charts.add(_coords(den, n_x, n_y, b))
    residual = ColumnSpace(n_x + n_y)
    for ak in a:
        residual.add(charts.reduce(_coords(den, n_x, n_y, h * ak)))
    return residual.rank


def cech_drops(F, nu):
    """(even, odd) obstruction ranks of the family F at power nu, by
    elimination in the Cech frame at N and again at 2N."""
    X, h, W = F.fiber, F.deformation, F.chart_point
    curve = X.curve
    pole = 0
    if not h.is_zero():
        pole = -min(curve.valuation(h, W),
                    curve.valuation(h, curve.infinity()), 0)
    drops = []
    for k in summand_powers(nu):
        D = semi_reduce(curve, k * X.L.rep)
        N = D.degree() + 2 * curve.genus + 2 + pole
        drop = _cech_drop_at(curve, D, W, h, N)
        assert drop == _cech_drop_at(curve, D, W, h, 2 * N), \
            "obstruction rank did not saturate under doubling"
        drops.append(drop)
    return tuple(drops)


def _curves():
    """Stock curves of genus 2 and 3, and seeded split curves with
    leading coefficient 1, 2, 3 and 5."""
    rng = random.Random(61)
    curves = [standard_curve(2), standard_curve(3)]
    for g, lead in ((2, 2), (2, 3), (3, 5), (3, 1)):
        roots = rng.sample(range(-5, 6), 2 * g + 1)
        curves.append(HyperellipticCurve(polyq.scale(
            polyq.from_roots([Fraction(r) for r in roots]), lead)))
    return curves


def _families(rng, cochains):
    for C in _curves():
        for theta in parity_representatives(C):
            X = make_split_supercurve(C, theta)
            for _ in range(cochains):
                yield SuperPointFamily(X, random_deformation(C, rng=rng))


def test_residue_drops_match_cech_oracle():
    drops = []
    for F in _families(random.Random(5), 2):
        for nu in (1, 2):
            rep = pushforward_over_superpoint(F, nu)
            got = (rep.drop_even, rep.drop_odd)
            assert got == cech_drops(F, nu), (F, nu)
            assert rep.free == (got == (0, 0))
            drops.extend(got)
    assert any(drops), "no nonzero obstruction exercised"


def test_superpoint_off_the_theta_classes_matches_cech_oracle():
    # y^2 = x^5 + 1, L = (0, 1) and y^2 = x^7 + 1, L = 2 (0, 1): only
    # h1(L) = h0(L) = 1 can obstruct, so nu = 1 has a residue matrix in
    # the odd summand and nu >= 2 is free with the fiber's rank
    Xa, Xb, Xc = non_susy_supercurves()
    rng = random.Random(28)
    drops = []
    for X in (Xa, Xb):
        for _ in range(2):
            F = SuperPointFamily(X, random_deformation(X.curve, rng=rng))
            for nu in (1, 2, 3, 4):
                rep = pushforward_over_superpoint(F, nu)
                rr = pluri_canonical_rank(X, nu)
                got = (rep.drop_even, rep.drop_odd)
                if nu < 3:
                    assert got == cech_drops(F, nu), (F, nu)
                assert (rep.rank, rep.hypotheses_hold) \
                    == (rr.rank, rr.hypotheses_hold)
                assert rep.residues_even == ()
                assert (len(rep.residues_odd) == 1) == (nu == 1)
                if nu > 1:
                    assert rep.free and got == (0, 0)
                drops.append(got)
    assert (0, 1) in drops, "no obstruction exercised"
    # the third has no rational finite branch point to serve as W
    with pytest.raises(ValueError, match="no rational finite branch point"):
        SuperPointFamily(Xc, 1)


def test_deformation_on_an_equal_curve_object_is_accepted():
    # curves are equal by their f, as for function field arithmetic
    C = standard_curve(2)
    for theta in parity_representatives(C):
        X = make_split_supercurve(C, theta)
        for nu in (1, 2, 3):
            other = SuperPointFamily(
                X, random_deformation(standard_curve(2), seed=5))
            own = SuperPointFamily(X, random_deformation(C, seed=5))
            assert (pushforward_over_superpoint(other, nu)
                    == pushforward_over_superpoint(own, nu))


@pytest.mark.parametrize("h_text, nus", [("x**6", (1, 2, 3)),
                                          ("y/x**5", (1, 2))],
                         ids=["x**6", "y/x**5"])
def test_deep_pole_cochains_are_decided(h_text, nus):
    # poles of order 12 at infinity and 9 at W = (0, 0), past the old
    # truncation bound N = deg D + 2g + 2
    C = standard_curve(2)
    X = make_split_supercurve(C, parity_representatives(C)[0])
    x, y = C.x_fn(), C.y_fn()
    h = x * x * x * x * x * x if h_text == "x**6" else y / (x * x * x * x * x)
    F = SuperPointFamily(X, h)
    for nu in nus:
        rep = pushforward_over_superpoint(F, nu)
        assert str(rep).startswith("free"), (h_text, nu)
        if nu < 3:
            assert cech_drops(F, nu) == (0, 0)


def test_residue_matrix_certifies_the_drops():
    for F in _families(random.Random(8), 1):
        curve = F.fiber.curve
        K = canonical_divisor(curve)
        for nu in (1, 2, 3):
            rep = pushforward_over_superpoint(F, nu)
            pairs = zip(summand_powers(nu),
                        (rep.residues_even, rep.residues_odd),
                        (rep.drop_even, rep.drop_odd))
            for k, M, drop in pairs:
                D = semi_reduce(curve, k * F.fiber.L.rep)
                rows, cols = h0(curve, D), h0(curve, K - D)
                if rows and cols:
                    assert len(M) == rows
                    assert all(len(r) == cols for r in M)
                    assert all(is_exact(c) for r in M for c in r)
                else:
                    assert M == ()
                ncols = len(M[0]) if M else 0
                assert ncols - len(kernel_basis(M, ncols)) == drop
                if nu >= 3:
                    assert M == ()


def reference_residue_matrix(curve, D, h):
    """The residue matrix from Laurent series: with x = t^-2 at infinity,
    Res_inf(h a_k b_j dx/y) = -2 [t^2](h a_k b_j / y)."""
    a = rr_space(curve, D)
    b = rr_space(curve, canonical_divisor(curve) - D)
    if not a or not b:
        return ()
    inf = curve.infinity()
    y = curve.y_fn()
    rows = []
    for ak in a:
        ha = h * ak
        row = []
        for bj in b:
            F = ha * (bj / y)
            v = 3 if F.is_zero() else curve.valuation(F, inf)
            row.append(Fraction(0) if v > 2 else
                       -2 * curve.laurent_at(F, inf, nterms=3 - v).coeff(2))
        rows.append(tuple(row))
    return tuple(rows)


def _residue_cases():
    """360 (curve, D, h, nu): the stock curves of genus 2 to 5 and a
    monic and a non-monic (leading coefficient 3) split genus-3 curve,
    both parity representatives, the cochain 1 and four random ones,
    nu = 1, 2, 3 and both summands."""
    rng, split = random.Random(5), random.Random(61)
    curves = [standard_curve(g) for g in (2, 3, 4, 5)]
    for lead in (1, 3):
        roots = split.sample(range(-6, 7), 7)
        curves.append(HyperellipticCurve(polyq.scale(
            polyq.from_roots([Fraction(r) for r in roots]), lead)))
    for C in curves:
        for theta in parity_representatives(C):
            X = make_split_supercurve(C, theta)
            cochains = [C.one_fn()] + [random_deformation(C, rng=rng)
                                       for _ in range(4)]
            for h in cochains:
                for nu in (1, 2, 3):
                    for k in summand_powers(nu):
                        yield C, semi_reduce(C, k * X.L.rep), h, nu


def test_residue_matrix_matches_laurent_oracle():
    cases = list(_residue_cases())
    assert len(cases) == 360
    nonzero = 0
    for C, D, h, nu in cases:
        got = _residue_matrix(C, D, h)
        assert got == reference_residue_matrix(C, D, h), (C, D, h, nu)
        assert all(is_exact(c) for row in got for c in row)
        nonzero += any(c for row in got for c in row)
    assert nonzero >= 50, "too few nonzero residue matrices compared"


def test_residue_matrix_takes_no_series_or_products(monkeypatch):
    cases = [case for case in _residue_cases() if case[3] < 3][::5]
    # the oracle fills the rr_space cache, so only the entries are left
    want = [reference_residue_matrix(C, D, h) for C, D, h, _ in cases]
    assert any(any(c for row in M for c in row) for M in want)

    def refuse(*args, **kwargs):
        raise AssertionError("series or a normalised product was taken")

    monkeypatch.setattr(HyperellipticCurve, "laurent_at", refuse)
    monkeypatch.setattr(HyperellipticCurve, "valuation", refuse)
    monkeypatch.setattr(FunctionFieldElement, "__mul__", refuse)
    assert [_residue_matrix(C, D, h) for C, D, h, _ in cases] == want


def test_bases_are_built_only_where_h1_is_positive(monkeypatch):
    families = []
    for g in (2, 3, 4):
        C = standard_curve(g)
        for theta in parity_representatives(C):
            X = make_split_supercurve(C, theta)
            families.append(SuperPointFamily(X, random_deformation(C,
                                                                   seed=g)))
    for X in non_susy_supercurves()[:2]:
        families.append(SuperPointFamily(X, random_deformation(X.curve,
                                                               seed=5)))
    ranks = {(id(F), nu): pluri_canonical_rank(F.fiber, nu).rank
             for F in families for nu in (2, 3, 4, 5)}

    def refuse(*args):
        raise AssertionError("a divisor, a reduction or a basis was built")

    # at nu >= 2 the rank reads degrees and the susy flag: no reduction
    # and no Divisor, and no basis either where both h1 vanish, which is
    # every nu >= 3 and nu = 2 off the theta classes
    with monkeypatch.context() as m:
        m.setattr(pluricanonical, "rr_space", refuse)
        m.setattr(riemann_roch, "_reduce", refuse)
        m.setattr(pluricanonical, "_reduce", refuse)
        m.setattr(Divisor, "__init__", refuse)
        for F in families:
            for nu in (2, 3, 4, 5):
                assert pluri_canonical_rank(F.fiber, nu).rank \
                    == ranks[id(F), nu]
                if nu == 2 and F.fiber.susy:
                    continue
                rep = pushforward_over_superpoint(F, nu)
                assert rep.free and (rep.drop_even, rep.drop_odd) == (0, 0)
                assert rep.residues_even == rep.residues_odd == ()
                assert rep.rank == ranks[id(F), nu]

    seen = []
    monkeypatch.setattr(pluricanonical, "rr_space",
                        lambda curve, D: seen.append(D) or rr_space(curve, D))
    for F in families:
        curve = F.fiber.curve
        K = canonical_divisor(curve)
        for nu in (1, 2):
            seen.clear()
            pushforward_over_superpoint(F, nu)
            want = []
            for k in summand_powers(nu):
                D = semi_reduce(curve, k * F.fiber.L.rep)
                if h1(curve, D):
                    want += [D, K - D]
            assert seen == want, (F, nu)
