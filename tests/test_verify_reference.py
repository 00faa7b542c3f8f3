"""verify_embedding against the Laurent-row reference.

The reference is the row test verify_embedding used to run: the Laurent
rows of `jet_rows` below, read from the public
`HyperellipticCurve.laurent_at` at every sample point, compared through
`fieldext.normalised` and `rows_independent`.  The integer rows, keys
and minors of verify_embedding must give the same report, failures
included, also where its checks stop early at a point off the cleared
divisors (a minor anchored past entry 0, odd sections zero there), and on
random models with sections dropped, at points with y in Q and in
Q(sqrt d) for d > 0 and d < 0, at infinity, at branch points, and at a
finite non-branch point in the support of a cleared divisor.  At infinity
and the branch points the rows are coefficients of polynomials, and at
the other finite points Taylor coefficients against the Taylor window of
y; they are checked at every branch point of monic and non-monic curves
at g = 2..6, and so is the error for sections with a pole past the
cleared divisor at infinity, at a branch point and at a point off the
branch locus.
"""

import json
import random
import re
from fractions import Fraction

import pytest

from plurisusy import cli, polyq, serialize
from plurisusy.curve import Divisor, HyperellipticCurve
from plurisusy.fieldext import QuadExt, normalised, rows_independent
from plurisusy.pluricanonical import (EmbeddingReport, PluriCanonicalModel,
                                      build_model, verify_embedding)
from plurisusy.riemann_roch import theta_from_subset
from plurisusy.series import TSeries
from plurisusy.supercurve import RankPair, make_split_supercurve


def jet_rows(curve, sections, D, P, nterms):
    """Laurent coefficient rows of the sections at P in the local
    trivialization of the D-twisted bundle: row k lists the t^(m+k)
    coefficients with m = -D[P], so the fiber evaluation is row 0."""
    m = -D[P]
    rows = [[] for _ in range(nterms)]
    for s in sections:
        q = curve.laurent_at(s, P, nterms=nterms)
        for k in range(nterms):
            rows[k].append(q.coeff(m + k))
    return rows


def reference_report(M, pts):
    curve = M.curve
    D_even = M.cleared_divisors["even"]
    D_odd = M.cleared_divisors["odd"]
    pairs = [(pts[i], pts[j])
             for i in range(len(pts)) for j in range(i + 1, len(pts))]
    points = list(dict.fromkeys(pts))
    jets = {}
    for P in points:
        r0, r1 = jet_rows(curve, M.even_sections, D_even, P, 2)
        (ro,) = jet_rows(curve, M.odd_sections, D_odd, P, 1)
        jets[P] = (r0, r1, ro, normalised(r0))
    tangent = [P for P in points if not rows_independent(*jets[P][:2])]
    odd = [P for P in points if all(c == 0 for c in jets[P][2])]
    pair = [(P, Q) for P, Q in pairs if P != Q and (
        jets[P][3] is None or jets[Q][3] is None or jets[P][3] == jets[Q][3])]
    return EmbeddingReport(M, len(pairs), len(points), pair, tangent, odd)


def _split(roots):
    return HyperellipticCurve(polyq.from_roots([Fraction(r) for r in roots]))


def _finite_points(C):
    """Non-branch points with x = k/2, by the field of y: 'Q', 'real'
    (y in Q(sqrt d), d > 0) and 'imaginary' (d < 0)."""
    kinds = {"Q": [], "real": [], "imaginary": []}
    for k in range(-30, 31):
        x0 = Fraction(k, 2)
        if polyq.eval_at(C.f, x0) == 0:
            continue
        P = C.point(x0)
        if not isinstance(P.y, QuadExt):
            kinds["Q"].append(P)
        else:
            kinds["real" if P.y.d > 0 else "imaginary"].append(P)
    return kinds


def _base_models(rng):
    """(model, extra sample points) for split curves at g = 2..4, with
    (0, 1, 2, 3, -7) and (0, 1, 2, 3, 4, 5, -6) carrying rational-y
    points, powers on both sides of the very-ampleness threshold, and
    y^2 = x^5 + 1 with L ~ Q = (0, 1), whose cleared divisors are
    multiples of the non-branch point Q."""
    out = []
    curves = [_split((0, 1, 2, 3, -7)), _split((0, 1, 2, 3, 4, 5, -6))]
    for g in (2, 2, 3, 3, 4):
        curves.append(_split(sorted(rng.sample(range(-6, 7), 2 * g + 1))))
    for C in curves:
        for _ in range(3):
            subset = rng.sample(range(2 * C.genus + 1),
                                rng.randint(0, C.genus))
            X = make_split_supercurve(C, theta_from_subset(C, subset))
            nu = rng.choice((3, 4, 5) if C.genus == 2 else (3, 4))
            out.append((build_model(X, nu, force=True), []))
    C = HyperellipticCurve(polyq.poly([1, 0, 0, 0, 0, 1]))
    Q = C.point(Fraction(0), y=Fraction(1))
    X = make_split_supercurve(C, Divisor({Q: 2, Q.conjugate(): 1,
                                          C.infinity(): -2}))
    for nu in (3, 4, 5, 6):
        M = build_model(X, nu, force=True)
        assert M.cleared_divisors["even"][Q] > 0
        out.append((M, [Q, Q.conjugate()]))
    return out


def _vanishing_at(C, sections, P):
    """A nonzero combination of the sections that vanishes at the point P,
    which has a rational y and is a pole of none of them; None if there
    is only one section and it does not vanish there."""
    values = [C.evaluate(s, P) for s in sections]
    for s, v in zip(sections, values):
        if v == 0:
            return s
    if len(sections) < 2:
        return None
    return sections[0] * values[1] - sections[1] * values[0]


def _variant(M, rng, rational):
    """M with sections dropped, and sometimes an odd list of one section
    that vanishes at a rational-y point, returned to be sampled."""
    even, odd = list(M.even_sections), list(M.odd_sections)
    extra = []
    if rng.random() < 0.6:
        even = rng.sample(even, rng.randint(1, len(even)))
    if rng.random() < 0.5:
        odd = rng.sample(odd, rng.randint(1, len(odd)))
    if rational and rng.random() < 0.3:
        P = rng.choice(rational)
        s = None
        if M.cleared_divisors["odd"][P] == 0:
            s = _vanishing_at(M.curve, odd, P)
        if s is not None:
            odd, extra = [s], [P]
    return PluriCanonicalModel(M.curve, M.nu,
                               RankPair(len(even) - 1, len(odd)),
                               tuple(even), tuple(odd),
                               M.cleared_divisors), extra


def _sample(C, rng, kinds, extra):
    pts = [C.infinity()] + extra
    branch = C.rational_branch_points()
    pts += rng.sample(branch, min(2, len(branch)))
    for kind in ("Q", "real", "imaginary"):
        if kinds[kind]:
            pts += rng.sample(kinds[kind], min(2, len(kinds[kind])))
    P = rng.choice(pts[1:])
    pts.append(P.conjugate())
    pts.append(P)  # a repeated point is one point and no pair check
    rng.shuffle(pts)
    return pts


def test_integer_keys_match_laurent_rows():
    rng = random.Random(1801)
    seen = {"pair": 0, "tangent": 0, "odd": 0, "pass": 0}
    fields = set()
    fallback_off_branch = 0
    n_models = 0
    for M, extra in _base_models(rng):
        C = M.curve
        kinds = _finite_points(C)
        for _ in range(9):
            V, vextra = _variant(M, rng, kinds["Q"])
            pts = _sample(C, rng, kinds, extra + vextra)
            got = verify_embedding(V, samples=pts)
            want = reference_report(V, pts)
            assert got.to_json() == want.to_json(), (V.even_sections,
                                                     V.odd_sections, pts)
            n_models += 1
            seen["pair"] += bool(got.pair_failures)
            seen["tangent"] += bool(got.tangent_failures)
            seen["odd"] += bool(got.odd_failures)
            seen["pass"] += got.all_pass
            fields |= {k for k in kinds if set(kinds[k]) & set(pts)}
            fallback_off_branch += any(
                not P.at_infinity and P.y != 0
                and V.cleared_divisors["even"][P] for P in pts)
    assert n_models >= 200
    assert min(seen.values()) >= 10, seen
    assert fields == {"Q", "real", "imaginary"}
    assert fallback_off_branch >= 20


def test_models_off_the_branch_locus_are_verified_without_series(
        monkeypatch):
    # the y^2 = x^5 + 1 models, whose cleared divisors sit on Q = (0, 1):
    # rows at Q and iota Q, at a zero of no denominator and at infinity
    # come with no series, and match the Laurent-row reference
    models = [(M, extra) for M, extra in _base_models(random.Random(1801))
              if extra]
    assert len(models) == 4
    cases = []
    for M, extra in models:
        C = M.curve
        kinds = _finite_points(C)
        pts = [C.infinity()] + extra + kinds["Q"][:2] + kinds["real"][:2] \
            + kinds["imaginary"][:2]
        cases.append((M, pts))
        rng = random.Random(len(cases))
        for _ in range(3):
            cases.append((_variant(M, rng, kinds["Q"])[0], pts))

    def refuse(*args, **kwargs):
        raise AssertionError("a series was built")

    with monkeypatch.context() as m:
        m.setattr(TSeries, "__init__", refuse)
        got = [verify_embedding(V, samples=pts) for V, pts in cases]
    for (V, pts), rep in zip(cases, got):
        assert rep.to_json() == reference_report(V, pts).to_json(), (
            V.even_sections, V.odd_sections)
    assert any(rep.all_pass for rep in got)
    assert not all(rep.all_pass for rep in got)


def test_pencils_with_shared_fibres_and_scaled_columns():
    # two-section models on y^2 = x(x - 1)(x - 2)(x - 3)(x + 7): x^2 takes
    # one value at the branch point (r, 0) and at (-r, y), so a pair of a
    # Laurent row and an integer row fails; columns with content other
    # than 1 need the same lam_j on both kinds of rows; and [1, y] has the
    # derivative row (0, f'/2y), which only the f' Bt term of row 1 gives
    C = _split((0, 1, 2, 3, -7))
    M = build_model(make_split_supercurve(C, theta_from_subset(C, [0])), 5)
    one, x, y = C.one_fn(), C.x_fn(), C.y_fn()
    pts = [C.infinity(), C.branch_point(1), C.branch_point(2),
           C.point(-1), C.point(-1, sign=-1), C.point(-2),
           C.point(Fraction(1, 2)), C.point(Fraction(-5, 3), sign=-1)]
    pencils = ([one * 3, x * x * Fraction(1, 2)],
               [one, y], [x * 2, y * Fraction(3, 5)],
               [one * Fraction(2, 7), (x * x + y) * 3, x * 5])
    failed_pairs = set()
    for even in pencils:
        V = PluriCanonicalModel(C, M.nu, RankPair(len(even) - 1, 1),
                                tuple(even), M.odd_sections[:1],
                                M.cleared_divisors)
        got = verify_embedding(V, samples=pts)
        assert got.to_json() == reference_report(V, pts).to_json(), even
        failed_pairs |= {(P.y == 0, Q.y == 0) for P, Q in got.pair_failures}
    assert (True, False) in failed_pairs or (False, True) in failed_pairs


def _integer_path_models():
    """On y^2 = x(x - 1)(x - 2)(x - 3)(x + 7) at nu = 5, the point
    P = (-1, 12), off the cleared divisors and the zeros of every
    denominator, with: a model whose first even section vanishes to
    order 2 at P and whose first two odd sections vanish there; and the
    model with its last even sections dropped until the tangent check
    fails at P, which takes rows (0, a), (0, b) there."""
    C = _split((0, 1, 2, 3, -7))
    M = build_model(make_split_supercurve(C, theta_from_subset(C, [0])), 5)
    P = C.point(-1)
    assert P.y == 12 and not M.cleared_divisors["even"][P]
    assert not M.cleared_divisors["odd"][P]
    assert all(polyq.eval_at(s.den, P.x) for s in
               M.even_sections + M.odd_sections)
    r0, r1 = jet_rows(C, M.even_sections[:3], M.cleared_divisors["even"],
                      P, 2)
    c = [r0[1] * r1[2] - r0[2] * r1[1], r0[2] * r1[0] - r0[0] * r1[2],
         r0[0] * r1[1] - r0[1] * r1[0]]
    double = sum((s * k for s, k in zip(M.even_sections, c)), C.zero_fn())
    even = (double,) + M.even_sections[1:]
    o = M.odd_sections
    u = [C.evaluate(s, P) for s in o]
    odd = (o[0] * u[1] - o[1] * u[0], o[0] * u[2] - o[2] * u[0]) + o[1:]
    assert not double.is_zero() and C.evaluate(double, P) == 0
    assert all(not s.is_zero() and C.evaluate(s, P) == 0 for s in odd[:2])
    models = [PluriCanonicalModel(C, M.nu, RankPair(len(even) - 1,
                                                    len(odd)),
                                  even, odd, M.cleared_divisors)]
    while len(even) > 2:
        even = even[:-1]
        models.append(PluriCanonicalModel(
            C, M.nu, RankPair(len(even) - 1, len(odd)), even, odd,
            M.cleared_divisors))
    pts = [C.infinity(), P, P.conjugate(), C.branch_point(1), C.point(2),
           C.point(Fraction(1, 2)), C.point(Fraction(-5, 3), sign=-1)]
    return P, models, pts


def test_lazy_checks_at_integer_points_match_laurent_rows():
    # at P the even minor anchors past entry 0 and reads past a zero
    # minor, and the odd scan passes two sections that vanish there
    P, models, pts = _integer_path_models()
    reports = [verify_embedding(V, samples=pts) for V in models]
    for V, got in zip(models, reports):
        assert got.to_json() == reference_report(V, pts).to_json(), (
            len(V.even_sections))
        assert P not in got.odd_failures
    assert P not in reports[0].tangent_failures
    tangent_at_P = [P in rep.tangent_failures for rep in reports]
    assert tangent_at_P.index(True) == len(models) - 1
    assert len(models[-1].even_sections) == 2


def _theta_models(rng):
    """Models of theta characteristics at g = 2..6 on split curves, one
    monic and one not per genus, on both sides of the very-ampleness
    threshold."""
    for g in range(2, 7):
        for lc in (1, rng.choice((3, Fraction(-2, 5), Fraction(7, 2)))):
            roots = [Fraction(r) for r in rng.sample(range(-7, 8), 2 * g + 1)]
            C = HyperellipticCurve(polyq.scale(polyq.from_roots(roots), lc))
            for _ in range(2):
                subset = rng.sample(range(2 * g + 1), rng.randint(0, g))
                X = make_split_supercurve(C, theta_from_subset(C, subset))
                nu = rng.choice((3, 4, 5) if g == 2 else (3, 4))
                yield build_model(X, nu, force=True)


def test_rows_at_infinity_and_every_branch_point():
    rng = random.Random(2203)
    failed_at = {"inf": 0, "branch": 0}
    n_models = 0
    for M in _theta_models(rng):
        C = M.curve
        kinds = _finite_points(C)
        special = [C.infinity()] + C.rational_branch_points()
        for _ in range(3):
            V, _ = _variant(M, rng, [])
            pts = special + rng.sample(kinds["Q"] + kinds["real"]
                                       + kinds["imaginary"], 3)
            got = verify_embedding(V, samples=pts)
            want = reference_report(V, pts)
            assert got.to_json() == want.to_json(), (V.even_sections,
                                                     V.odd_sections, pts)
            n_models += 1
            bad = set(got.tangent_failures) | set(got.odd_failures) | {
                P for pair in got.pair_failures for P in pair}
            failed_at["inf"] += C.infinity() in bad
            failed_at["branch"] += any(P.y == 0 for P in bad
                                       if not P.at_infinity)
    assert n_models == 60
    assert min(failed_at.values()) >= 10, failed_at


def test_sections_past_the_cleared_divisor_are_named_in_the_error(
        monkeypatch, tmp_path, capsys):
    # a section with a pole past D at infinity, at a branch point, or at a
    # point off the branch locus has no rows there; verify_embedding names
    # the summand, the section and the point without building a series,
    # and the reference raises since its Laurent window, sized by the
    # valuation, ends below the rows D asks for
    C = _split((0, 1, 2, 3, -7))
    M = build_model(make_split_supercurve(C, theta_from_subset(C, [0])), 5)
    D = M.cleared_divisors["even"]
    W = C.branch_point(1)
    assert D[W] == 0
    pole_at_inf = C.x_fn() ** (D[C.infinity()] // 2 + 1)
    pole_at_W = (C.x_fn() - 1).inverse() * C.y_fn()
    pts = [C.infinity(), W, C.branch_point(2), C.point(-1), C.point(5)]
    cases = [(M, extra, P, pts)
             for extra, P in ((pole_at_inf, C.infinity()), (pole_at_W, W))]
    # y^2 = x^5 + 1 with D_even = 4 (0, 1): (y + 1) x^-6 has order -6 at
    # (0, 1) and -1 at (0, -1), where D_even is 0
    K = HyperellipticCurve(polyq.poly([1, 0, 0, 0, 0, 1]))
    Q = K.point(Fraction(0), y=Fraction(1))
    MK = build_model(make_split_supercurve(
        K, Divisor({Q: 2, Q.conjugate(): 1, K.infinity(): -2})), 3,
        force=True)
    assert MK.cleared_divisors["even"] == Divisor({Q: 4})
    pole_at_Q = (K.y_fn() + 1) * K.x_fn() ** -6
    for P in (Q, Q.conjugate()):
        cases.append((MK, pole_at_Q, P, [K.infinity(), K.point(1), P]))

    def refuse(*args, **kwargs):
        raise AssertionError("a series was built")

    for M0, extra, P, pts in cases:
        even = M0.even_sections[:3] + (extra,)
        V = PluriCanonicalModel(M0.curve, M0.nu, RankPair(len(even) - 1, 1),
                                even, M0.odd_sections[:1],
                                M0.cleared_divisors)
        message = f"even section 3 has a pole past its cleared divisor at {P!r}"
        with monkeypatch.context() as m:
            m.setattr(TSeries, "__init__", refuse)
            with pytest.raises(ValueError, match=re.escape(message)):
                verify_embedding(V, samples=pts)
        with pytest.raises(ValueError, match="beyond truncation window"):
            reference_report(V, pts)

    # verify names it too, with exit 2; seed 1 draws (0, 1) among the
    # 100 sample pairs
    path = tmp_path / "model.json"
    path.write_text(json.dumps(serialize.model_to_json(V)))
    assert cli.main(["verify", str(path), "--samples", "100",
                     "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: even section 3 has a pole past its cleared divisor at "
        "(0, 1)\n")
