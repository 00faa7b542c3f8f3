"""Riemann-Roch spaces, divisor classes, and the theta census."""

import functools
import random
from fractions import Fraction
from itertools import combinations

import pytest

from plurisusy import polyq, riemann_roch
from plurisusy.curve import (CurvePoint, Divisor, FunctionFieldElement,
                             HyperellipticCurve, standard_curve)
from plurisusy.fieldext import QuadExt
from plurisusy.linalg import kernel_basis
from plurisusy.riemann_roch import (DivisorClass, ThetaCharacteristic,
                                    _semi_reduced, branch_roots,
                                    canonical_class, canonical_divisor,
                                    class_eq, h0, h1, is_principal,
                                    parity_representatives, rr_space,
                                    semi_reduce, theta_characteristics,
                                    theta_from_subset)
from plurisusy.series import TSeries

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


def _local_series(curve, P, n, r):
    """x^0(t), ..., x^n(t) and y(t) at the finite point P, exact below r,
    from the public series of x - x_P at a branch point and of y."""
    if P.is_branch():
        x = curve.x_series_at_branch(P.x, r) + TSeries.from_poly_coeffs(
            [P.x], r)
    else:
        x = TSeries.from_poly_coeffs([P.x, Fraction(1)], r)
    powers = [TSeries.from_poly_coeffs([Fraction(1)], r)]
    while len(powers) <= n:
        powers.append(powers[-1] * x)
    return powers, curve.y_series_at(P, r)


def _kernel_oracle(curve, D):
    """L(D) as the kernel over Laurent-series rows at every finite point of
    D, branch points included: the reduced echelon basis in
    clearing_frame's candidates, by an algorithm that shares nothing with
    rr_space's divisibility and remainder conditions.  At each point the
    candidates x^i and x^j y must vanish to order ord_P(d) - D[P]; an
    inert fibre needs its + sheet only, since a row over Q(sqrt(d)) splits
    into its rational and sqrt parts."""
    if D.degree() < 0:
        return []
    exps, d, n_x, n_y = riemann_roch.clearing_frame(curve, D)
    if n_x + n_y == 0:
        return []
    rows = []
    branch = curve._branch_points()
    for x0, e in sorted(exps.items()):
        if x0 in branch:
            points = [(branch[x0], 2 * e)]
        else:
            P = curve.point(x0, sign=1)
            points = [(P, e), (P.conjugate(), e)] if P.is_rational() else [(P, e)]
        for P, order in points:
            r = order - D[P]
            if r <= 0:
                continue
            powers, ys = _local_series(curve, P, max(n_x, n_y) - 1, r)
            series = powers[:n_x] + [s * ys for s in powers[:n_y]]
            for k in range(r):
                entries = [s.coeff(k) for s in series]
                if any(isinstance(c, QuadExt) for c in entries):
                    rows.append([c.u if isinstance(c, QuadExt) else c
                                 for c in entries])
                    rows.append([c.v if isinstance(c, QuadExt) else 0
                                 for c in entries])
                else:
                    rows.append(entries)
    return [FunctionFieldElement(curve, v[:n_x], v[n_x:], d)
            for v in kernel_basis(rows, n_x + n_y)]


def _fields(basis):
    return [(b.A, b.B, b.den) for b in basis]


def _branch_divisors(rng, n):
    """(curve, D) with D on branch points and infinity: split curves at
    g = 2..5 with integer and half-integer roots, monic or not, with
    multiplicities -3..5 at branch points."""
    for _ in range(n):
        g = rng.randint(2, 5)
        roots = set()
        while len(roots) < 2 * g + 1:
            roots.add(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2))))
        lc = rng.choice((1, 3, Fraction(-2, 5)))
        C = HyperellipticCurve(polyq.scale(polyq.from_roots(roots), lc))
        branch = C.rational_branch_points()
        data = {P: rng.randint(-3, 5)
                for P in rng.sample(branch, rng.randint(0, len(branch)))}
        data[C.infinity()] = rng.randint(-3, 4 * g)
        yield C, Divisor(data)


def test_branch_space_matches_the_kernel_oracle():
    # the closed form and the series kernel give the same reduced echelon
    # basis, field for field
    rng = random.Random(2201)
    kinds = {"nonempty": 0, "negative": 0, "non-monic": 0, "cancelled": 0}
    for C, D in _branch_divisors(rng, 300):
        got = rr_space(C, D)
        assert _fields(got) == _fields(_kernel_oracle(C, D)), (C, D)
        kinds["nonempty"] += bool(got)
        kinds["negative"] += any(n < 0 for n in D.data.values()) and bool(got)
        kinds["non-monic"] += polyq.lead(C.f) != 1 and bool(got)
        _, d, _, _ = riemann_roch.clearing_frame(C, D)
        kinds["cancelled"] += any(b.den != d for b in got)
    assert min(kinds.values()) >= 40, kinds


def _refuse(*args, **kwargs):
    raise AssertionError("a series was built")


def test_branch_space_builds_no_series_or_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("series or kernel on the branch locus")

    cases = list(_branch_divisors(random.Random(2202), 40))
    monkeypatch.setattr(TSeries, "__init__", refuse)
    monkeypatch.setattr(riemann_roch, "kernel_basis", refuse)
    monkeypatch.setattr(polyq, "gcd", refuse)
    for C, D in cases:
        for b in rr_space(C, D):
            assert all(C.valuation(b, P) + D[P] >= 0 for P in D.support())


@functools.lru_cache(maxsize=None)
def _curves_with_points(g):
    """Three split curves of genus g with rational non-branch points (see
    _split_curve_with_points), as (f, rational, quadratic) coordinates."""
    rng = random.Random(2300 + g)
    out = []
    for _ in range(3):
        C, rational, quadratic = _split_curve_with_points(g, rng)
        out.append((C.f, [(P.x, P.y) for P in rational],
                    [P.x for P in quadratic]))
    return tuple(out)


def _off_branch_divisors(rng, n):
    """(curve, D) with a finite point of D off the branch locus, on split
    curves at g = 2..5, monic or not: rational points on one sheet or on
    both, inert fibres (y in Q(sqrt(d))) as conjugate pairs, branch points
    with multiplicities -3..5, and infinity bringing the degree to
    -1..2g + 3.  Each divisor comes on a new curve object, so no cached
    expansion hides what rr_space computes."""
    for _ in range(n):
        g = rng.randint(2, 5)
        f, rational, quadratic = rng.choice(_curves_with_points(g))
        C = HyperellipticCurve(f)
        data = {}
        for i in range(rng.randint(1, 4)):
            roll = rng.randrange(1 if i == 0 else 0, 4)  # first: off branch
            if roll == 0:
                W = rng.choice(C.rational_branch_points())
                data[W] = rng.choice((-3, -2, -1, 1, 2, 3, 4, 5))
            elif roll == 1:
                P = C.point(*rng.choice(rational))
                P = rng.choice((P, P.conjugate()))
                data[P] = rng.choice((-2, -1, 1, 2, 3))
            elif roll == 2:
                P = C.point(*rng.choice(rational))
                data[P] = rng.choice((-2, -1, 1, 2, 3))
                data[P.conjugate()] = rng.randint(-2, 3)
            else:
                P = C.point(rng.choice(quadratic))
                data[P] = data[P.conjugate()] = rng.choice((-2, -1, 1, 2))
        D = Divisor(data)
        target = rng.randint(-1, 2 * g + 3)
        yield C, D + Divisor.of_point(C.infinity(), target - D.degree())


def test_off_branch_space_matches_the_kernel_oracle(monkeypatch):
    # divisibility and the one-sheet remainder rows, built with no series,
    # give the oracle's reduced echelon basis, field for field
    rng = random.Random(2203)
    kinds = {"nonempty": 0, "one sheet": 0, "both sheets": 0, "inert": 0,
             "branch negative": 0, "branch positive": 0, "non-monic": 0,
             "taylor-free": 0, **{f"g={g}": 0 for g in range(2, 6)}}
    for C, D in _off_branch_divisors(rng, 320):
        with monkeypatch.context() as m:
            m.setattr(TSeries, "__init__", _refuse)
            got = rr_space(C, D)
        assert _fields(got) == _fields(_kernel_oracle(C, D)), (C, D)
        if not got:
            continue
        finite = [P for P in D.support() if not P.at_infinity]
        off = [P for P in finite if not P.is_branch()]
        kinds["nonempty"] += 1
        kinds["one sheet"] += any(P.is_rational() and D[P] != D[P.conjugate()]
                                  for P in off)
        kinds["both sheets"] += any(P.is_rational() and D[P.conjugate()]
                                    for P in off)
        kinds["inert"] += any(not P.is_rational() for P in off)
        kinds["branch negative"] += any(D[P] < 0 for P in finite
                                        if P.is_branch())
        kinds["branch positive"] += any(D[P] > 0 for P in finite
                                        if P.is_branch())
        kinds["non-monic"] += polyq.lead(C.f) != 1
        exps = riemann_roch.clearing_frame(C, D)[0]
        kinds["taylor-free"] += all(exps[P.x] <= D[P] and
                                    exps[P.x] <= D[P.conjugate()] for P in off)
        kinds[f"g={C.genus}"] += 1
    assert kinds["nonempty"] >= 100, kinds
    assert min(kinds.values()) >= 10, kinds


def test_off_branch_space_expands_no_series_at_a_branch_point(monkeypatch):
    # no series anywhere: off the branch locus only the Taylor window of y
    # at a rational point with a one-sheet excess
    real = polyq.sqrt_window
    calls = []

    def spy(F, root0, n):
        calls.append(root0)
        return real(F, root0, n)

    cases = list(_off_branch_divisors(random.Random(2204), 60))
    monkeypatch.setattr(TSeries, "__init__", _refuse)
    monkeypatch.setattr(polyq, "sqrt_window", spy)
    for C, D in cases:
        rr_space(C, D)
    assert calls and all(isinstance(y0, Fraction) and y0 for y0 in calls)


def test_space_of_double_infinity():
    basis = rr_space(C2, Divisor({C2.infinity(): 2}))
    assert [repr(b) for b in basis] == ["1", "x"]


def test_space_of_six_infinity():
    basis = rr_space(C2, Divisor({C2.infinity(): 6}))
    assert [repr(b) for b in basis] == ["1", "x", "x^2", "x^3", "y"]


def test_space_is_a_new_list_on_every_call():
    # a caller that edits its basis leaves later calls, and h0, untouched
    C = standard_curve(2)
    D = Divisor({C.infinity(): 6})
    first, second = rr_space(C, D), rr_space(C, D)
    assert first == second and first is not second
    first.pop()
    assert len(rr_space(C, D)) == 5
    assert h0(C, D) == 5


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


def _split_curve_with_points(g, rng):
    """Random squarefree split f of degree 2g + 1 (leading coefficient 1,
    2 or 3) with at least two rational non-branch points: the + sheets of
    those points, and points with y in a quadratic extension."""
    while True:
        roots = rng.sample(range(-9, 10), 2 * g + 1)
        f = polyq.scale(polyq.from_roots([Fraction(r) for r in roots]),
                        rng.choice((1, 2, 3)))
        C = HyperellipticCurve(f)
        pts = [C.point(Fraction(x)) for x in range(-30, 31) if x not in roots]
        rational = [P for P in pts if P.is_rational()]
        if len(rational) >= 2:
            return C, rational, [P for P in pts if not P.is_rational()]


def _random_divisor(C, rng, rational, quadratic):
    """Branch points of any multiplicity, one or both sheets of rational
    points, conjugate pairs, negative coefficients, and enough infinity
    to land the degree in [-2, 2g + 3]."""
    D = Divisor()
    for _ in range(rng.randint(2, 5)):
        roll = rng.randrange(4)
        if roll == 0:
            W = rng.choice(C.rational_branch_points())
            D = D + Divisor.of_point(W, rng.randint(-3, 3))
        elif roll == 1:
            D = D + Divisor.of_point(rng.choice(rational), rng.randint(-2, 3))
        elif roll == 2:
            P = rng.choice(rational)
            D = D + Divisor({P: rng.randint(-2, 3),
                             P.conjugate(): rng.randint(-2, 3)})
        else:
            P, n = rng.choice(quadratic), rng.randint(-2, 2)
            D = D + Divisor({P: n, P.conjugate(): n})
    target = rng.randint(-2, 2 * C.genus + 3)
    return D + Divisor.of_point(C.infinity(), target - D.degree())


@pytest.mark.parametrize("g", [2, 3, 4])
def test_h0_matches_rr_space_on_random_split_curves(g):
    rng = random.Random(900 + g)
    cantor = 0
    for _ in range(2):
        C, rational, quadratic = _split_curve_with_points(g, rng)
        for _ in range(25):
            D = _random_divisor(C, rng, rational, quadratic)
            n = h0(C, D)
            assert n == len(rr_space(C, D)), D
            assert n - h1(C, D) == D.degree() - g + 1, D
            if D.degree() > 2 * g - 2:
                assert n == D.degree() - g + 1, D
            cantor += sum(_semi_reduced(D).values()) > g
    assert cantor >= 10  # the Mumford-pair reduction ran, not only the shortcut


@pytest.mark.parametrize("g", [2, 3, 4])
def test_semi_reduce_on_random_split_curves(g):
    rng = random.Random(900 + g)  # the divisors of the h0 test above
    for _ in range(2):
        C, rational, quadratic = _split_curve_with_points(g, rng)
        inf = C.infinity()
        for _ in range(25):
            D = _random_divisor(C, rng, rational, quadratic)
            R = semi_reduce(C, D)
            assert R.degree() == D.degree() and class_eq(C, D, R), D
            assert semi_reduce(C, R) == R, D
            E = R - Divisor.of_point(inf, R[inf])
            assert E.is_effective(), D
            for P, n in E.items():
                assert P.is_rational() and not P.at_infinity, D
                if P.is_branch():
                    assert n == 1, D
                else:
                    assert E[P.conjugate()] == 0, D


@pytest.mark.parametrize("g", [2, 3, 4])
def test_semi_reduce_of_theta_powers(g):
    """k * L for a theta characteristic keeps each subset root k mod 2
    times and puts the rest at infinity."""
    C = standard_curve(g)
    inf = C.infinity()
    for th in theta_characteristics(C):
        for k in range(1, 9):
            kept = k % 2 * len(th.roots)
            literal = Divisor({C.branch_point(r): k % 2 for r in th.roots}
                              ) + Divisor.of_point(inf, k * (g - 1) - kept)
            assert semi_reduce(C, k * th.divisor) == literal, (th.subset, k)


# y^2 = v^2 + (x + 3)(x + 2)...(x - 3) with v = x^2 + 1: f has no rational
# root, and y - v vanishes exactly at the seven points (s, v(s))
CV3 = HyperellipticCurve(polyq.add(
    polyq.mul((1, 0, 1), (1, 0, 1)),
    polyq.from_roots([Fraction(s) for s in range(-3, 4)])))
CV3_Q = [CV3.point(Fraction(s), y=Fraction(s * s + 1)) for s in range(-3, 4)]


def test_class_eq_agrees_with_is_principal_in_degree_zero(monkeypatch):
    inf = CV3.infinity()
    Q = CV3_Q
    y_minus_v = CV3.function((-1, 0, -1), (1,))
    div_y = Divisor({P: 1 for P in Q}) - Divisor.of_point(inf, 7)
    div_x = Divisor({Q[1]: 1, Q[1].conjugate(): 1, inf: -2})  # div(x + 2)
    assert CV3.divisor_of(y_minus_v) == div_y
    rng = random.Random(31)
    cases = [div_y, div_x, div_y - div_x, Divisor()]
    for _ in range(30):
        D = Divisor({rng.choice(Q + [P.conjugate() for P in Q]):
                     rng.randint(-2, 2) for _ in range(3)})
        D = D + Divisor.of_point(inf, -D.degree())
        cases += [D, D + div_y]
    verdicts = []
    for D in cases:
        ok, wit = is_principal(CV3, D)
        assert ok == class_eq(CV3, D, Divisor()) == (len(rr_space(CV3, D)) == 1)
        if ok:
            assert CV3.divisor_of(wit) == D
        verdicts.append(ok)
    assert any(verdicts) and not all(verdicts)
    assert class_eq(CV3, cases[-2] + div_x, cases[-2])
    # a non-principal answer comes from the reduced pair alone
    monkeypatch.setattr(riemann_roch, "rr_space", None)
    assert is_principal(CV3, Divisor({Q[0]: 1, inf: -1})) == (False, None)


def test_classes_off_the_branch_locus_build_no_series(monkeypatch):
    # h0 and is_principal through the Mumford pairs of off-branch points
    # (semi-reduced parts of degree above g), with divisor_of checking each
    # witness, all without a series; then against the kernel oracle and
    # the orders of the witness in laurent_at, on both sheets
    cases = []
    for g in (2, 3):
        rng = random.Random(900 + g)  # the divisors of the h0 test above
        C, rational, quadratic = _split_curve_with_points(g, rng)
        for _ in range(25):
            D = _random_divisor(C, rng, rational, quadratic)
            if sum(_semi_reduced(D).values()) > g:
                cases.append((C, D))
    inf, Q = CV3.infinity(), CV3_Q
    div_y = Divisor({P: 1 for P in Q}) - Divisor.of_point(inf, 7)
    div_x = Divisor({Q[1]: 1, Q[1].conjugate(): 1, inf: -2})  # div(x + 2)
    rng = random.Random(32)
    for _ in range(12):
        D = Divisor({rng.choice(Q + [P.conjugate() for P in Q]):
                     rng.randint(-2, 2) for _ in range(3)})
        D = D + Divisor.of_point(inf, -D.degree())
        cases += [(CV3, D), (CV3, D + div_y), (CV3, div_y - D - D)]
    cases += [(CV3, div_y), (CV3, div_y - div_x), (CV3, 2 * div_y + div_x)]
    with monkeypatch.context() as m:
        m.setattr(TSeries, "__init__", _refuse)
        got = [(h0(C, D), is_principal(C, D)) for C, D in cases]
    seen = {"mumford": 0, "principal": 0, "not principal": 0}
    for (C, D), (n, (ok, wit)) in zip(cases, got):
        basis = _kernel_oracle(C, D)
        assert n == len(basis), D
        assert ok == (D.degree() == 0 and len(basis) == 1), D
        if ok:
            for P in D.support():
                for R in (P, P.conjugate()):
                    assert C.laurent_at(wit, R).val == D[R], (D, R)
        seen["mumford"] += sum(_semi_reduced(D).values()) > C.genus
        seen["principal" if ok else "not principal"] += D.degree() == 0
    assert min(seen.values()) >= 3, seen


def test_galois_unstable_divisor_is_rejected():
    P = CV3.point(Fraction(5))
    assert not P.is_rational()
    D = Divisor({P: 1, CV3.infinity(): -1})
    for call in (lambda: h0(CV3, D), lambda: h0(CV3, D - D - D),
                 lambda: class_eq(CV3, D, Divisor()),
                 lambda: is_principal(CV3, D), lambda: semi_reduce(CV3, D),
                 lambda: rr_space(CV3, D)):
        with pytest.raises(ValueError, match="not stable under conjugation"):
            call()


def test_h0_needs_no_factoring(monkeypatch):
    C = HyperellipticCurve(CV3.f)  # fresh: nothing factored yet
    Q = [C.point(P.x, y=P.y) for P in CV3_Q]
    P5 = C.point(Fraction(5))
    inf = C.infinity()
    divisors = [Divisor({P: 1 for P in Q}) + Divisor.of_point(inf, k)
                for k in (-9, -7, -5, -3, 0)]
    divisors += [Divisor({Q[0]: 3, Q[2].conjugate(): 2, Q[5]: 1, inf: -2}),
                 Divisor({Q[0]: 2, Q[0].conjugate(): -1, P5: 1,
                          P5.conjugate(): 1, inf: 1}),
                 Divisor({Q[3]: -2, inf: 4})]

    def refuse(p):
        raise AssertionError("h0 factored a polynomial")

    with monkeypatch.context() as m:
        m.setattr(polyq, "rational_roots", refuse)
        got = [h0(C, D) for D in divisors]
    assert got == [len(rr_space(C, D)) for D in divisors]
    assert polyq.deg(polyq.rational_roots(C.f)[1]) == 7


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


def test_semi_reduce_moves_branch_pairs():
    W0 = C2.branch_point(Fraction(0))
    W1 = C2.branch_point(Fraction(1))
    inf = C2.infinity()
    D = Divisor({W0: 5, W1: -2, inf: 1})
    R = semi_reduce(C2, D)
    assert R == Divisor({W0: 1, inf: 3})
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


@pytest.mark.parametrize("subset", [[0.9], [True], ["1"]])
def test_theta_subset_entries_must_be_ints(subset):
    # int() would have read these as the subsets (0,), (1,) and (1,)
    with pytest.raises(ValueError, match=r"^theta subset must be a list of "
                                         r"integers, got \["):
        theta_from_subset(C2, subset)


def test_classes_on_different_curves_are_unequal():
    C = HyperellipticCurve(polyq.from_roots(
        [Fraction(r) for r in (0, 1, 2, 3, 5)]))
    assert canonical_class(C2) != canonical_class(C)
    assert theta_from_subset(C2, (0,)).cls != theta_from_subset(C, (0,)).cls
    # another curve object with the same f is the same curve
    assert canonical_class(standard_curve(2)) == canonical_class(C2)
    assert (theta_from_subset(standard_curve(2), (0,)).cls
            == theta_from_subset(C2, (0,)).cls)


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


# a split curve whose branch points are not all integral
CQ3 = HyperellipticCurve(polyq.from_roots(
    [Fraction(r) for r in ("-3/2", -1, 0, "1/2", 2, 5, 7)]))


@pytest.mark.parametrize("curve", [C2, C3, standard_curve(4), CQ3],
                         ids=["g2", "g3", "g4", "g3-fractional"])
def test_census_against_independent_oracles(curve):
    g = curve.genus
    rs = branch_roots(curve)
    K = canonical_divisor(curve)
    census = theta_characteristics(curve)
    assert [t.subset for t in census] == [
        S for k in range(g + 1) for S in combinations(range(2 * g + 1), k)]
    for t in census:
        one = theta_from_subset(curve, t.subset)
        assert (one.subset, one.roots, one.divisor, one.h0) == (
            t.subset, t.roots, t.divisor, t.h0)
        assert t.roots == tuple(rs[i] for i in t.subset)
        assert t.h0 == h0(curve, t.divisor)  # reduces the divisor
        assert class_eq(curve, 2 * t.divisor, K)
        if g <= 3:  # the series-based basis of L(D)
            assert t.h0 == len(rr_space(curve, t.divisor)), t.subset


def test_census_reduces_no_divisor(monkeypatch):
    C = standard_curve(3)

    def refuse(*args):
        raise AssertionError("the census built, reduced or added divisors "
                             "or points")

    monkeypatch.setattr(riemann_roch, "_reduce", refuse)
    monkeypatch.setattr(Divisor, "__add__", refuse)
    monkeypatch.setattr(Divisor, "__init__", refuse)
    monkeypatch.setattr(CurvePoint, "__init__", refuse)
    census = theta_characteristics(C)
    assert len(census) == 64
    assert sum(t.is_odd for t in census) == 28


@pytest.mark.parametrize("g", [2, 3])
def test_census_thetas_are_values(g):
    C = standard_curve(g)
    census = set(theta_characteristics(C))
    assert len(census) == 4 ** g
    for k in range(g + 1):
        for S in combinations(range(2 * g + 1), k):
            assert theta_from_subset(C, S) in census
    # equal on another curve object with the same f, unequal when f differs
    same = standard_curve(g)
    other = HyperellipticCurve(polyq.from_roots(
        [Fraction(r) for r in [*range(2 * g), 2 * g + 1]]))
    for t in census:
        assert theta_from_subset(same, t.subset) == t
        assert theta_from_subset(other, t.subset) != t


def test_thetas_are_immutable_tuple_values():
    rng = random.Random(61)
    for g in range(2, 7):
        roots = rng.sample([Fraction(k, 2) for k in range(-20, 21)],
                           2 * g + 1)
        lc = rng.choice([1, 3, Fraction(-1, 2)])
        C = HyperellipticCurve(polyq.scale(polyq.from_roots(roots), lc))
        moved = HyperellipticCurve(polyq.scale(C.f, 2))  # same roots
        census = theta_characteristics(C)
        for t in census:
            u = theta_from_subset(C, t.subset)
            assert type(t) is ThetaCharacteristic
            assert (t.curve, t.subset, t.roots, t.h0) == (
                u.curve, u.subset, u.roots, u.h0)
            assert t == u and not t != u and hash(t) == hash(u)
            assert repr(t) == repr(u)
            assert hash(t) == hash((t.curve, t.subset, t.roots, t.h0))
            v = theta_from_subset(moved, t.subset)
            assert t != v and not t == v
            fields = tuple(t)
            assert t != fields and fields != t
            assert not t == fields and not fields == t
        t = census[-1]
        for name in ("curve", "subset", "roots", "h0", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
        assert repr(t) == (f"ThetaCharacteristic(curve={C!r}, "
                           f"subset={t.subset!r}, roots={t.roots!r}, "
                           f"h0={t.h0!r})")
        # the first size-g subset, and the first odd h0 in census order
        odd = next(theta_from_subset(C, u.subset) for u in census if u.h0 % 2)
        even = theta_from_subset(C, tuple(range(g)))
        reps = parity_representatives(C)
        assert reps == (even, odd)
        assert [type(t) for t in reps] == [ThetaCharacteristic] * 2


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_one_gcd_per_curve(monkeypatch, g):
    # the constructor proves f squarefree; the census factors f without
    # a second gcd
    calls = []
    int_gcd = polyq._int_gcd

    def counted(*args):
        calls.append(args)
        return int_gcd(*args)

    monkeypatch.setattr(polyq, "_int_gcd", counted)
    roots = random.Random(67 + g).sample(
        [Fraction(k, 3) for k in range(-30, 31)], 2 * g + 1)
    C = HyperellipticCurve(polyq.scale(polyq.from_roots(roots), Fraction(-5, 7)))
    assert len(theta_characteristics(C)) == 4 ** g
    assert len(calls) == 1


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
