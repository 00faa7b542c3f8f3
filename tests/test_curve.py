"""Function field arithmetic, valuations, series, and principal divisors."""

import random
from fractions import Fraction

import pytest

from plurisusy import polyq
from plurisusy.curve import (Divisor, HyperellipticCurve,
                             UnrepresentableSupportError, _compose_poly,
                             standard_curve)
from plurisusy.riemann_roch import rr_space
from plurisusy.series import TSeries

C2 = standard_curve(2)  # y^2 = x(x-1)(x-2)(x-3)(x-4)
C3 = standard_curve(3)


def test_constructor_rejects_bad_f():
    with pytest.raises(ValueError):
        HyperellipticCurve(polyq.poly([1, 0, 1]))  # even degree
    with pytest.raises(ValueError):
        HyperellipticCurve(polyq.from_roots([Fraction(0)] * 3))  # not squarefree
    with pytest.raises(ValueError):
        HyperellipticCurve(polyq.poly([0, 1]))  # degree below 5


def test_genus():
    assert C2.genus == 2
    assert C3.genus == 3
    assert standard_curve(6).genus == 6


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_point_kinds():
    inf = C2.infinity()
    assert inf.at_infinity
    W0 = C2.branch_point(Fraction(0))
    assert W0.is_branch() and W0.y == 0
    P = C2.point(Fraction(-1), sign=1)
    Q = C2.point(Fraction(-1), sign=-1)
    assert P != Q
    assert P.conjugate() == Q
    assert not P.is_rational()  # f(-1) = -120 is not a square
    R = C2.point(Fraction(5))  # f(5) = 120, still not a square
    assert not R.is_rational()


def test_point_with_rational_y():
    # g=2 curve through (-1, 12): roots 0,1,2,3,-7
    C = HyperellipticCurve(polyq.from_roots(
        [Fraction(r) for r in (0, 1, 2, 3, -7)]))
    P = C.point(Fraction(-1), y=Fraction(12))
    assert P.is_rational() and P.y == 12
    with pytest.raises(ValueError):
        C.point(Fraction(-1), y=Fraction(5))  # 25 != f(-1)


def test_rational_branch_points():
    pts = C2.rational_branch_points()
    assert [p.x for p in pts] == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------


def test_valuations_at_infinity():
    inf = C2.infinity()
    assert C2.valuation(C2.x_fn(), inf) == -2
    assert C2.valuation(C2.y_fn(), inf) == -5
    inf3 = C3.infinity()
    assert C3.valuation(C3.x_fn(), inf3) == -2
    assert C3.valuation(C3.y_fn(), inf3) == -7


def test_valuations_at_branch_point():
    W0 = C2.branch_point(Fraction(0))
    x, y = C2.x_fn(), C2.y_fn()
    assert C2.valuation(x, W0) == 2
    assert C2.valuation(y, W0) == 1
    assert C2.valuation(y / x, W0) == -1
    W1 = C2.branch_point(Fraction(1))
    assert C2.valuation(x, W1) == 0
    assert C2.valuation(x - 1, W1) == 2


def test_valuation_at_generic_point():
    P = C2.point(Fraction(-1))
    x = C2.x_fn()
    assert C2.valuation(x + 1, P) == 1
    assert C2.valuation(x, P) == 0
    # y - y(P) vanishes at P only on P's sheet
    assert C2.valuation(C2.y_fn(), P) == 0


def test_valuation_sheet_separation():
    # (y - 12) vanishes at (-1, 12) but not at (-1, -12)
    C = HyperellipticCurve(polyq.from_roots(
        [Fraction(r) for r in (0, 1, 2, 3, -7)]))
    P = C.point(Fraction(-1), y=Fraction(12))
    Q = C.point(Fraction(-1), y=Fraction(-12))
    fn = C.y_fn() - 12
    assert C.valuation(fn, P) >= 1
    assert C.valuation(fn, Q) == 0


def _random_function(curve, rng):
    def rpoly(deg):
        return polyq.poly([Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)])

    while True:
        A = rpoly(rng.randint(0, 2))
        B = rpoly(rng.randint(0, 1)) if rng.random() < 0.6 else polyq.ZERO
        den = rpoly(rng.randint(0, 1))
        if den and (A or B):
            return curve.function(A, B, den)


def _random_point(curve, rng):
    roll = rng.random()
    if roll < 0.2:
        return curve.infinity()
    if roll < 0.4:
        pts = curve.rational_branch_points()
        return pts[rng.randrange(len(pts))]
    x0 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    if polyq.eval_at(curve.f, x0) == 0:
        return curve.branch_point(x0)
    return curve.point(x0, sign=rng.choice((1, -1)))


def test_valuation_product_rule():
    rng = random.Random(10)
    for _ in range(100):
        f = _random_function(C2, rng)
        g = _random_function(C2, rng)
        P = _random_point(C2, rng)
        assert (C2.valuation(f * g, P)
                == C2.valuation(f, P) + C2.valuation(g, P))


def test_valuation_ultrametric():
    rng = random.Random(11)
    for _ in range(60):
        f = _random_function(C2, rng)
        g = _random_function(C2, rng)
        if (f + g).is_zero():
            continue
        P = _random_point(C2, rng)
        assert C2.valuation(f + g, P) >= min(C2.valuation(f, P),
                                             C2.valuation(g, P))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_squares_to_f():
    # y expanded at a branch point must satisfy y^2 = f(x) exactly
    W1 = C2.branch_point(Fraction(1))
    cut = 9
    ys = C2.y_series_at(W1, cut)
    xs = C2.x_series_at_branch(Fraction(1), cut)
    lhs = ys * ys
    # f(x(t)) via Horner on the shifted polynomial
    rhs = None
    for c in reversed(polyq.shift(C2.f, Fraction(1))):
        rhs = TSeries.zero(xs.cut) if rhs is None else rhs * xs
        rhs = rhs + TSeries.from_poly_coeffs([c], min(cut, rhs.cut))
    for k in range(min(lhs.cut, rhs.cut)):
        assert lhs.coeff(k) == rhs.coeff(k)


def _fixed_point_x_series(C, r, cut):
    """x - r at the branch point (r, 0) by the fixed point s <- t^2 / u(s),
    with f(r + s) = s u(s): one order of t^2 per iteration, the reference
    for the Newton step of x_series_at_branch."""
    fshift = polyq.shift(C.f, r)
    u = fshift[1:]
    t2 = TSeries.from_poly_coeffs([Fraction(0), Fraction(0), Fraction(1)], cut)
    s = TSeries.from_poly_coeffs([Fraction(0), Fraction(0), 1 / u[0]], cut)
    for _ in range(cut):
        nxt = t2 * _compose_poly(u, s, cut).inverse()
        if (nxt.val, nxt.coeffs, nxt.cut) == (s.val, s.coeffs, s.cut):
            break
        s = nxt
    assert (_compose_poly(fshift, s, cut) - t2).is_empty()
    return s


def test_branch_series_newton_matches_fixed_point():
    # every branch point of the stock curves of genus 2..6 at the cuts
    # around the first two doublings; at the middle one every cut up to
    # 30 against the truncations of the cut-30 fixed point
    def key(s):
        return s.val, s.coeffs, s.cut

    for g in range(2, 7):
        C = standard_curve(g)
        branch = C.rational_branch_points()
        for W in branch:
            for cut in (1, 2, 3, 4, 5, 8, 9):
                assert key(C.x_series_at_branch(W.x, cut)) \
                    == key(_fixed_point_x_series(C, W.x, cut)), (g, W, cut)
        r = branch[g].x
        want = _fixed_point_x_series(C, r, 30)
        for cut in range(3, 31):
            assert key(C.x_series_at_branch(r, cut)) == key(
                TSeries.from_poly_coeffs(want.coeffs, cut, want.val)), (g, cut)


def test_series_at_infinity_squares_to_f():
    cut = 3
    ys = C2.y_series_at_infinity(cut)
    assert ys.val == -5 and ys.coeffs[0]
    sq = ys * ys
    # f(t^-2) has lowest term t^-10 with coefficient lead(f) = 1
    assert sq.val == -10
    assert sq.coeff(-10) == 1


def test_laurent_matches_evaluate():
    rng = random.Random(12)
    for _ in range(40):
        f = _random_function(C2, rng)
        P = _random_point(C2, rng)
        if C2.valuation(f, P) < 0:
            continue
        s = C2.laurent_at(f, P, nterms=1)
        assert s.coeff(0) == C2.evaluate(f, P)


def test_laurent_leading_term_at_requested_depth():
    f = C2.y_fn() / C2.x_fn()
    W0 = C2.branch_point(Fraction(0))
    s = C2.laurent_at(f, W0, nterms=3)
    assert s.val == -1 and s.coeffs[0]
    assert s.cut >= 2


def test_evaluate_pole_raises():
    inf = C2.infinity()
    with pytest.raises(ZeroDivisionError):
        C2.evaluate(C2.x_fn(), inf)


# ---------------------------------------------------------------------------
# function field arithmetic
# ---------------------------------------------------------------------------


def test_field_axioms_random():
    rng = random.Random(13)
    for _ in range(60):
        f = _random_function(C2, rng)
        g = _random_function(C2, rng)
        h = _random_function(C2, rng)
        assert f * (g + h) == f * g + f * h
        assert (f - f).is_zero()
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_constant_functions_hash_as_their_rationals():
    half = Fraction(1, 2)
    for fn, c in ((C2.one_fn(), 1), (C2.zero_fn(), 0),
                  (C2.function((half,)), half), (C3.function((-3,)), -3),
                  (C2.function((2,), den=(4,)), half)):
        assert fn == c and hash(fn) == hash(c)
        assert len({fn, c}) == 1 and {c: "c"}[fn] == "c"
    assert len({C2.one_fn(), C2.x_fn(), C2.y_fn(), 1}) == 3
    assert C2.function((1,), den=(0, 1)) != 1


def test_inverse_and_norm():
    rng = random.Random(14)
    one = C2.one_fn()
    for _ in range(40):
        f = _random_function(C2, rng)
        assert f * f.inverse() == one
        n = f.norm_fn()
        assert not n.B  # the norm is a rational function of x alone
        assert f * f.conj() == n


def test_relation_y_squared_is_f():
    y = C2.y_fn()
    fx = C2.function(C2.f)
    assert y * y == fx


# ---------------------------------------------------------------------------
# principal divisors
# ---------------------------------------------------------------------------


def test_divisor_of_x():
    W0 = C2.branch_point(Fraction(0))
    inf = C2.infinity()
    D = C2.divisor_of(C2.x_fn())
    assert D == Divisor({W0: 2, inf: -2})


def test_divisor_of_y():
    inf = C2.infinity()
    D = C2.divisor_of(C2.y_fn())
    expect = Divisor({W: 1 for W in C2.rational_branch_points()})
    expect = expect + Divisor({inf: -5})
    assert D == expect


def test_divisor_degree_zero_random():
    rng = random.Random(15)
    count = 0
    while count < 100:
        f = _random_function(C2, rng)
        try:
            D = C2.divisor_of(f)
        except UnrepresentableSupportError:
            continue
        assert D.degree() == 0
        count += 1


def test_divisor_of_product_random():
    rng = random.Random(16)
    count = 0
    while count < 30:
        f = _random_function(C2, rng)
        g = _random_function(C2, rng)
        try:
            Df = C2.divisor_of(f)
            Dg = C2.divisor_of(g)
            Dfg = C2.divisor_of(f * g)
        except UnrepresentableSupportError:
            continue
        assert Dfg == Df + Dg
        count += 1


def _curve_with_a_split_norm(g, rng):
    """y^2 = f = v^2 + c (x - s_0)...(x - s_2g) with v = (x - s_0) w: y - v
    and y + v have the rational zeros (s_i, +-v(s_i)), (s_0, 0) is a branch
    point, and x - a has a rational, an inert or a branch fibre.  Returns
    the curve and its atoms (function, divisor)."""
    while True:
        s = rng.sample(range(-6, 7), 2 * g + 1)
        w = polyq.poly(Fraction(rng.randint(-3, 3)) for _ in range(g))
        v = polyq.mul(polyq.from_roots([Fraction(s[0])]), w)
        f = polyq.add(polyq.mul(v, v), polyq.scale(
            polyq.from_roots([Fraction(r) for r in s]), rng.choice((1, -2, 3))))
        if w and polyq.is_squarefree(f):
            break
    C = HyperellipticCurve(f)
    inf = C.infinity()
    atoms = []
    for sign in (1, -1):
        zeros = {C.point(r, y=sign * polyq.eval_at(v, r)): 1 for r in s}
        atoms.append((C.function(polyq.scale(v, -sign), (1,)),
                      Divisor({**zeros, inf: -(2 * g + 1)})))
    for a in [Fraction(r) for r in s] + [Fraction(rng.randint(-9, 9))
                                         for _ in range(4)]:
        if polyq.eval_at(f, a) == 0:
            fibre = {C.branch_point(a): 2}
        else:
            P = C.point(a)
            fibre = {P: 1, P.conjugate(): 1}
        atoms.append((C.function((-a, 1)), Divisor({**fibre, inf: -2})))
    return C, atoms


def test_divisor_of_products_with_rational_and_quadratic_fibres():
    # functions c * prod atom^e have the divisor sum e * div(atom), and
    # div(f g) = div f + div g, with zeros and poles at branch points,
    # on both sheets of rational fibres and on inert fibres
    rng = random.Random(25)
    seen = {"branch": 0, "one sheet": 0, "inert": 0, "mixed": 0}
    for g in (2, 3):
        for _ in range(4):
            C, atoms = _curve_with_a_split_norm(g, rng)

            def rfn():
                fn = C.function((Fraction(rng.randint(1, 5), rng.randint(1, 5)),))
                D = Divisor()
                for at, Dat in rng.sample(atoms, rng.randint(1, 3)):
                    e = rng.choice((-2, -1, 1, 2))
                    fn, D = fn * at ** e, D + e * Dat
                return fn, D

            for _ in range(6):
                (f1, D1), (f2, D2) = rfn(), rfn()
                for fn, D in ((f1, D1), (f2, D2), (f1 * f2, D1 + D2)):
                    assert C.divisor_of(fn) == D, (C, fn)
                pts = [P for P in (D1 + D2).support() if not P.at_infinity]
                seen["branch"] += any(P.is_branch() for P in pts)
                seen["one sheet"] += any(
                    P.is_rational() and not P.is_branch()
                    and (D1 + D2)[P.conjugate()] != (D1 + D2)[P] for P in pts)
                seen["inert"] += any(not P.is_rational() for P in pts)
                seen["mixed"] += bool((f1 * f2).A and (f1 * f2).B)
    assert min(seen.values()) >= 5, seen


def test_divisor_of_builds_the_norm_once(monkeypatch):
    # y - 1 on y^2 = x^5 + 1 vanishes to order 5 at (0, 1), where
    # A + B y0 = 0: the norm -x^5 takes three products, and its
    # multiplicity gives that order with no second norm
    C = HyperellipticCurve(polyq.poly([1, 0, 0, 0, 0, 1]))
    fn = C.y_fn() - C.one_fn()
    real, calls = polyq.mul, []

    def spy(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(polyq, "mul", spy)
    D = C.divisor_of(fn)
    assert D == Divisor({C.point(0, 1): 5, C.infinity(): -5})
    assert len(calls) == 3, calls


def test_divisor_of_values_one_sheet_per_fibre(monkeypatch):
    # off the branch locus valuation reads one sheet and the norm gives
    # the other, so _val_num_at runs once per non-branch fibre and no
    # series is built; both sheets' orders match the Laurent series of
    # laurent_at
    rng = random.Random(27)
    real = HyperellipticCurve._val_num_at
    calls = []

    def spy(self, A, B, P, *norm_mult):
        calls.append(P.x)
        return real(self, A, B, P, *norm_mult)

    def refuse(*args, **kwargs):
        raise AssertionError("a series was built")

    checked = 0
    for g in (2, 3):
        for _ in range(3):
            C, atoms = _curve_with_a_split_norm(g, rng)
            for _ in range(4):
                fn = C.function((Fraction(rng.randint(1, 5)),))
                for at, _D in rng.sample(atoms, rng.randint(1, 3)):
                    fn = fn * at ** rng.choice((-2, -1, 1, 2))
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(HyperellipticCurve, "_val_num_at", spy)
                    m.setattr(TSeries, "__init__", refuse)
                    D = C.divisor_of(fn)
                fibres = {P.x for P in D.support()
                          if not (P.at_infinity or P.is_branch())}
                assert sorted(calls) == sorted(fibres), (C, fn)
                for P in D.support():
                    for Q in (P, P.conjugate()):
                        assert C.laurent_at(fn, Q).val == D[Q], (C, fn, Q)
                checked += len(fibres)
    assert checked >= 40, checked


def test_taylor_window_of_y_matches_its_series():
    # polyq.sqrt_window on Taylor coefficients of f against the series of
    # y from y_series_at, at points with y in Q and in Q(sqrt d), d > 0 and
    # d < 0, on both sheets, for windows up to 12; as y_series_at runs the
    # same recurrence, the window is also squared back to f's window
    rng = random.Random(28)
    points = []
    for C in _differential_curves():
        rational, quadratic = _finite_points(C)
        points += rational + rng.sample(quadratic, 16)
    for g in (2, 3):
        _C, atoms = _curve_with_a_split_norm(g, rng)
        points += [P for _fn, D in atoms[:2] for P in D.support()
                   if not (P.at_infinity or P.is_branch())]
    seen = {"Q": 0, "real": 0, "imaginary": 0}
    for P in points:
        C, m = P.curve, rng.randint(1, 12)
        F = polyq.taylor(C.f, P.x, m)
        window = polyq.sqrt_window(F, P.y, m)
        for k in range(m):
            square = sum(window[i] * window[k - i] for i in range(k + 1))
            assert square == (F[k] if k < len(F) else 0), (C, P, k)
        series = C.y_series_at(P, m)
        assert window == [series.coeff(k) for k in range(m)], (C, P, m)
        seen["Q" if P.is_rational() else
             "real" if P.y.d > 0 else "imaginary"] += 1
    assert min(seen.values()) >= 10, seen


def _series_valuation(C, fn, P):
    """Order of fn at a finite non-branch point from the Laurent series of
    A + B y, expanded one term past the order of the norm A^2 - B^2 f at
    x0, which bounds it (A - B y has no pole there), minus the order of
    den."""
    A, B, x0 = fn.A, fn.B, P.x
    norm = polyq.sub(polyq.mul(A, A), polyq.mul(polyq.mul(B, B), C.f))
    cut = polyq.mult_at(norm, x0) + 1

    def window(p):
        return TSeries.from_poly_coeffs(polyq.taylor(p, x0, cut), cut)

    s = window(A) + window(B) * C.y_series_at(P, cut)
    assert s.coeffs, "the norm bounds the order"
    return s.val - polyq.mult_at(fn.den, x0)


def test_valuation_off_the_branch_locus_matches_the_series_oracle():
    # k + M from the norm, against the series of A + B y, on cold curves:
    # at the rational zeros (s_i, +-v(s_i)) of products of y -+ v and
    # x - a on both sheets, at random non-branch points, and after
    # multiplying by powers of x - x0
    rng = random.Random(26)
    seen = {"zero": 0, "zero on one sheet only": 0, "x - x0 divides": 0,
            "pole": 0, "unit": 0}
    for g in (2, 3):
        for _ in range(12):
            C, atoms = _curve_with_a_split_norm(g, rng)
            sheets = [P for D in (atoms[0][1], atoms[1][1])
                      for P in D.support() if not (P.at_infinity or P.is_branch())]
            for _ in range(6):
                fn = C.function((Fraction(rng.randint(1, 5), rng.randint(1, 5)),))
                for at, _D in rng.sample(atoms, rng.randint(1, 3)):
                    fn = fn * at ** rng.choice((-1, 1, 2, 3))
                P = rng.choice(sheets)
                if rng.random() < 0.3:
                    fn = fn * C.function((-P.x, 1)) ** rng.randint(1, 2)
                pts = [P, P.conjugate(), _random_point(C, rng)]
                for Q in pts:
                    if Q.at_infinity or Q.is_branch():
                        continue
                    v = C.valuation(fn, Q)
                    assert v == _series_valuation(C, fn, Q), (C, fn, Q)
                    seen["zero"] += v > 0
                    seen["pole"] += v < 0
                    seen["unit"] += v == 0
                    seen["x - x0 divides"] += all(
                        polyq.mult_at(p, Q.x) for p in (fn.A, fn.B) if p)
                seen["zero on one sheet only"] += (
                    C.valuation(fn, P) != C.valuation(fn, P.conjugate()))
    assert min(seen.values()) >= 10, seen


def test_irrational_support_raises():
    # x^2 - 2 vanishes at x = +-sqrt(2)
    fn = C2.function(polyq.poly([Fraction(-2), Fraction(0), Fraction(1)]))
    with pytest.raises(UnrepresentableSupportError):
        C2.divisor_of(fn)


def test_divisor_arithmetic():
    inf = C2.infinity()
    W0 = C2.branch_point(Fraction(0))
    D = Divisor({W0: 3, inf: -1})
    E = Divisor.of_point(W0) + Divisor.of_point(inf, 2)
    assert (D + E)[W0] == 4
    assert (D - E)[inf] == -3
    assert (-D).degree() == -2
    assert 2 * Divisor.of_point(W0) == Divisor({W0: 2})
    assert not D.is_effective()
    assert E.is_effective()


# ---------------------------------------------------------------------------
# a warm curve, with its roots and branch points kept, answers like a cold one
# ---------------------------------------------------------------------------


def _series_key(s):
    return (s.val, s.coeffs, s.cut)


def _warm_vs_cold_curves():
    rng = random.Random(2024)
    curves = [HyperellipticCurve(polyq.from_roots(
        [Fraction(r) for r in (0, 1, 2, 3, -7)]))]  # (-1, +-12) on it
    for g in (2, 3, 2, 3):
        roots = rng.sample(range(-6, 7), 2 * g + 1)
        curves.append(HyperellipticCurve(polyq.from_roots(
            [Fraction(r) for r in roots])))
    return curves


def _finite_points(C):
    """Rational-y and quadratic-y points with small x, both sheets."""
    rational, quadratic = [], []
    for k in range(-24, 25):
        x0 = Fraction(k, 2)
        if polyq.eval_at(C.f, x0) == 0:
            continue
        P = C.point(x0)
        (rational if P.is_rational() else quadratic).extend([P, P.conjugate()])
    return rational, quadratic


@pytest.mark.parametrize("C", _warm_vs_cold_curves(),
                         ids=["designed", "g2a", "g3a", "g2b", "g3b"])
def test_warm_caches_answer_like_a_cold_curve(C):
    rng = random.Random(hash(C.f) % 1000)
    branch = C.rational_branch_points()
    rational, quadratic = _finite_points(C)
    inf = C.infinity()
    tasks = []  # (name, task on a curve, result key)

    for W in branch:
        c = rng.randint(1, 7)
        C.x_series_at_branch(W.x, c + rng.randint(1, 6))
        tasks.append(("x", lambda K, r=W.x, c=c: K.x_series_at_branch(r, c),
                      _series_key))
    for P in rng.sample(rational, min(4, len(rational))) \
            + rng.sample(quadratic, 4) + branch[:2]:
        for c in (rng.randint(1, 9), rng.randint(1, 9)):
            tasks.append(("y", lambda K, P=P, c=c: K.y_series_at(P, c),
                          _series_key))
    for c in (-2 * C.genus, rng.randint(-6, 6), rng.randint(-6, 6)):
        tasks.append(("y inf", lambda K, c=c: K.y_series_at_infinity(c),
                      _series_key))
    laurent_points = branch + [inf] + rng.sample(quadratic, 4) + rational[:2]
    for _ in range(40):
        fn = _random_function(C, rng)
        P = rng.choice(laurent_points)
        n = rng.randint(1, 5)
        tasks.append(("laurent", lambda K, fn=fn, P=P, n=n: K.laurent_at(
            K.function(fn.A, fn.B, fn.den), P, nterms=n), _series_key))
    for _ in range(12):
        data = {inf: rng.randint(-2, 2 * C.genus + 2)}
        for W in rng.sample(branch, 2):
            data[W] = rng.randint(-2, 3)
        P = rng.choice(quadratic)
        n = rng.randint(-1, 2)
        data[P] = data[P.conjugate()] = n
        D = Divisor(data)
        tasks.append(("rr", lambda K, D=D: rr_space(K, D),
                      lambda basis: [(h.A, h.B, h.den) for h in basis]))
    rng.shuffle(tasks)

    for name, task, key in tasks:
        warm = key(task(C))
        cold = key(task(HyperellipticCurve(C.f)))
        assert warm == cold, name


def test_laurent_window_ends_at_requested_depth():
    rng = random.Random(5)
    for _ in range(30):
        fn = _random_function(C3, rng)
        P = _random_point(C3, rng)
        n = rng.randint(1, 4)
        s = C3.laurent_at(fn, P, nterms=n)
        assert s.cut == C3.valuation(fn, P) + n


# ---------------------------------------------------------------------------
# laurent_at against the regular-point Taylor window
# ---------------------------------------------------------------------------


def taylor_window(C, fn, P, nterms):
    """The first nterms Taylor coefficients of fn at the finite non-branch
    point P where fn has neither a zero nor a pole: those of A + B y(t)
    in t = x - x0, times 1/den(t), from polyq.taylor and no valuation."""
    def window(p):
        w = list(polyq.taylor(p, P.x, nterms))
        return TSeries(0, w + [Fraction(0)] * (nterms - len(w)), nterms)

    q = window(fn.A)
    if fn.B:
        q = q + window(fn.B) * C.y_series_at(P, nterms)
    assert q.coeff(0) != 0
    return q * window(fn.den).inverse()


def _differential_curves():
    rng = random.Random(77)
    curves = [HyperellipticCurve(polyq.from_roots([Fraction(r) for r in roots]))
              for roots in ((0, 1, 2, 3, -7),  # (-1, +-12) on it
                            (0, 1, 2, 3, 4, 5, -6))]  # (-1, +-60) on it
    for g in (2, 3):
        roots = rng.sample(range(-6, 7), 2 * g + 1)
        curves.append(HyperellipticCurve(polyq.from_roots(
            [Fraction(r) for r in roots])))
    # f with rational coefficients and one rational root only
    curves.append(HyperellipticCurve(polyq.mul(
        polyq.poly([Fraction(-1, 3), 1]),
        polyq.poly([Fraction(5, 2), 0, 1, Fraction(-7, 4), 2]))))
    return curves


def _differential_case(C, rng, kind, rational):
    """(fn, P) for one kind of point: 'regular' (y(P) in Q or Q(sqrt d),
    fn without zero or pole there), 'zero' of the numerator, 'pole' at a
    root of den, 'branch' or 'infinity'.  Finite points come from the
    list of rational-y points `rational` 40 % of the time."""
    def rpoly(deg):
        return polyq.poly(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(deg + 1))

    if kind == "infinity":
        P = C.infinity()
    elif kind == "branch":
        P = rng.choice(C.rational_branch_points())
    elif rational and rng.random() < 0.4:
        P = rng.choice(rational)
    else:
        while True:
            x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            if polyq.eval_at(C.f, x0) != 0:
                break
        P = C.point(x0, sign=rng.choice((1, -1)))
    while True:
        A = rpoly(rng.randint(0, 4))
        B = rpoly(rng.randint(0, 3)) if rng.random() < 0.7 else polyq.ZERO
        den = rpoly(rng.randint(0, 2)) if rng.random() < 0.5 else polyq.ONE
        if not den or not (A or B):
            continue
        if kind != "regular" or (
                polyq.eval_at(den, P.x) != 0
                and polyq.eval_at(A, P.x) + polyq.eval_at(B, P.x) * P.y != 0):
            break
    if kind in ("zero", "pole"):
        lin = polyq.from_roots([P.x] * rng.randint(1, 3))
        if kind == "pole":
            den = polyq.mul(den, lin)
        elif P.is_rational() and rng.random() < 0.5:
            # A(x0) + B(x0) y0 = 0 with A and B not both vanishing at x0
            A = polyq.sub(A, (polyq.eval_at(A, P.x)
                              + polyq.eval_at(B, P.x) * P.y,))
        else:
            A, B = polyq.mul(A, lin), polyq.mul(B, lin)
    return C.function(A, B, den), P


@pytest.mark.parametrize("C", _differential_curves(),
                         ids=["g2pt", "g3pt", "g2", "g3", "g2q"])
def test_regular_path_matches_valuation_first(C):
    # laurent_at sizes its windows by the valuation at every point; at a
    # regular point its window must be the Taylor window, which needs
    # none, and everywhere a cold curve must give the same window
    rng = random.Random(hash(C.f) % 997)
    rational = [P for P in _finite_points(C)[0] if P.x.denominator == 1]
    kinds = ("regular", "regular", "regular", "zero", "pole",
             "branch", "infinity")
    seen = set()
    for i in range(140):
        kind = kinds[i % len(kinds)]
        fn, P = _differential_case(C, rng, kind, rational)
        n = rng.randint(1, 4)
        got = C.laurent_at(fn, P, nterms=n)
        cold = HyperellipticCurve(C.f).laurent_at(fn, P, nterms=n)
        assert (got.val, got.coeffs, got.cut) \
            == (cold.val, cold.coeffs, cold.cut), (kind, fn, P, n)
        if kind == "regular":
            want = taylor_window(C, fn, P, n)
            assert (got.val, got.coeffs, got.cut) \
                == (want.val, want.coeffs, want.cut), (fn, P, n)
        seen.add((kind, P.is_rational()))
    # every kind occurs, and finite points with y in Q(sqrt d) and, on
    # the curves with such points in reach, in Q
    assert {k for k, _ in seen} == set(kinds)
    assert ("regular", False) in seen and ("zero", False) in seen
    if rational:
        assert ("regular", True) in seen and ("zero", True) in seen
