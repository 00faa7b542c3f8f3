"""Acceptance gate.

Each test covers one numbered check and prints a single pass/fail line
with its runtime, bypassing capture so the line shows up in plain pytest
output.  Checks with a runtime budget assert it.
"""

import random
import time
from fractions import Fraction

import sympy as sp

from plurisusy import polyq
from plurisusy.curve import Divisor, HyperellipticCurve, standard_curve
from plurisusy.graded_algebra import (GrassmannAlgebra, SuperMatrix,
                                      superconformal_derivation,
                                      susy_generator_square)
from plurisusy.pluricanonical import (SuperPointFamily, build_model,
                                      canonical_nonembedding_demo,
                                      pluri_canonical_rank,
                                      pushforward_over_superpoint,
                                      random_deformation, threshold_table,
                                      verify_embedding, very_ample_check)
from plurisusy.riemann_roch import (DivisorClass, canonical_class, class_eq,
                                    h0, parity_representatives, rr_space,
                                    semi_reduce, theta_characteristics,
                                    theta_from_subset)
from plurisusy.supercurve import (RankPair, SplitSupercurve, is_autodual,
                                  make_split_supercurve, moduli_dimension,
                                  verify_berezinian_transition)

z = sp.Symbol("z")


def _report(capsys, n, ok, elapsed, desc):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {desc}"
    with capsys.disabled():
        print(line)


def _even_supercurve(g):
    curve = standard_curve(g)
    ev, _ = parity_representatives(curve)
    return make_split_supercurve(curve, ev)


def test_criterion_1_first_power_rank(capsys):
    t0 = time.monotonic()
    ok = True
    for g in (2, 3):
        demo = canonical_nonembedding_demo(_even_supercurve(g))
        ok = ok and demo.rank == RankPair(0, g) and demo.h0_L == 0
    dt = time.monotonic() - t0
    _report(capsys, 1, ok and dt < 1.0, dt,
            "even-theta pushforward at first power has rank 0|g, g=2,3")
    assert ok
    assert dt < 1.0


def test_criterion_2_rank_grid(capsys):
    t0 = time.monotonic()
    ok = True
    for g in range(2, 7):
        X = _even_supercurve(g)
        curve = X.curve
        for nu in range(3, 7):
            r = pluri_canonical_rank(X, nu)
            target = (nu - 1) * g - nu + 1
            # slot holding the nu-th power summand
            lo_slot = r.rank.even if nu % 2 == 0 else r.rank.odd
            f_lo = r.formula.even if nu % 2 == 0 else r.formula.odd
            ok = ok and lo_slot == target == f_lo
            # the companion printed value is an annotation, always flagged
            ok = ok and r.formula_differs and "alt formula" in str(r)
            hi_printed = (2 * nu - 1) * g - 2 * nu + 1
            f_hi = r.formula.odd if nu % 2 == 0 else r.formula.even
            ok = ok and f_hi == hi_printed
            # independent cross-check: exact kernel dimensions against the
            # degree - g + 1 closed form, for both summands
            dims = []
            for m in (nu, nu + 1):
                D = semi_reduce(curve, m * X.L.rep)
                dim = len(rr_space(curve, D))
                ok = ok and dim == m * (g - 1) - g + 1
                dims.append(dim)
            pair = (RankPair(dims[0], dims[1]) if nu % 2 == 0
                    else RankPair(dims[1], dims[0]))
            ok = ok and r.rank == pair
    dt = time.monotonic() - t0
    _report(capsys, 2, ok and dt < 10.0, dt,
            "derived ranks match (nu-1)g-nu+1 and exact kernel dims, "
            "g=2..6, nu=3..6")
    assert ok
    assert dt < 10.0


def test_criterion_3_threshold_table(capsys):
    t0 = time.monotonic()
    ok = True
    reps = {g: parity_representatives(standard_curve(g)) for g in range(2, 7)}
    for c in threshold_table(6, 6):
        should_pass = (c.g >= 4 or (c.g == 3 and c.nu >= 4)
                       or (c.g == 2 and c.nu >= 5))
        ok = ok and c.all_pass == should_pass
        if not c.all_pass:
            ok = ok and c.witness is not None
            # confirm the witness with the parity whose check failed
            ev, od = reps[c.g]
            th = ev if not c.even_pass else od
            curve = th.cls.curve
            P, Q = c.witness
            D = (canonical_class(curve).rep - c.nu * th.cls.rep
                 + Divisor.of_point(P) + Divisor.of_point(Q))
            ok = ok and h0(curve, semi_reduce(curve, D)) >= 1
    dt = time.monotonic() - t0
    _report(capsys, 3, ok and dt < 30.0, dt,
            "very-ampleness passes exactly on g>=4, (3,nu>=4), (2,nu>=5); "
            "failures carry confirmed witnesses")
    assert ok
    assert dt < 30.0


def test_criterion_4_theta_census(capsys):
    t0 = time.monotonic()
    C2 = standard_curve(2)
    census2 = theta_characteristics(C2)
    odd2 = [t for t in census2 if t.is_odd]
    ok = len(census2) == 16 and len(odd2) == 6
    K2 = canonical_class(C2)
    for t in census2:
        ok = ok and class_eq(C2, 2 * t.cls.rep, K2.rep)
        ok = ok and t.h0 % 2 == (1 if t.is_odd else 0)
    for i in range(len(census2)):
        for j in range(i + 1, len(census2)):
            ok = ok and not class_eq(C2, census2[i].cls.rep,
                                     census2[j].cls.rep)
    C3 = standard_curve(3)
    census3 = theta_characteristics(C3)
    odd3 = [t for t in census3 if t.is_odd]
    ok = ok and len(census3) == 64 and len(odd3) == 28
    K3 = canonical_class(C3)
    for t in census3:
        ok = ok and class_eq(C3, 2 * t.cls.rep, K3.rep)
    dt = time.monotonic() - t0
    _report(capsys, 4, ok and dt < 60.0, dt,
            "censuses: 16 distinct classes 6|10 at genus 2, 64 classes "
            "28|36 at genus 3")
    assert ok
    assert dt < 60.0


def test_criterion_5_embedding(capsys):
    t0 = time.monotonic()
    C2 = standard_curve(2)
    X = make_split_supercurve(C2, theta_from_subset(C2, (0,)))
    M = build_model(X, 5)
    ok = M.ambient == RankPair(4, 4)
    rep = verify_embedding(M, samples=200, seed=11)
    ok = ok and rep.all_pass and rep.pairs_checked == 200
    # forcing the power below threshold reproduces the failure
    wit = very_ample_check(X, 4).witness
    M4 = build_model(X, 4, force=True)
    check = verify_embedding(M4, samples=list(wit), seed=0)
    ok = ok and not check.all_pass and wit[0] in check.tangent_failures
    dt = time.monotonic() - t0
    _report(capsys, 5, ok and dt < 60.0, dt,
            "genus-2 fifth-power model in P^(4|4) passes 200 pair checks; "
            "forced fourth power fails at the witness")
    assert ok
    assert dt < 60.0


def _random_grassmann(alg, rng, parity):
    terms = {}
    n = len(alg.gens)
    subsets = [()]
    for mask in range(1, 1 << n):
        subsets.append(tuple(i for i in range(n) if mask >> i & 1))
    for S in subsets:
        if len(S) % 2 != parity or rng.random() < 0.4:
            continue
        terms[S] = rng.randint(-4, 4)
    return alg.element(terms)


def _random_supermatrix(alg, rng, p, q):
    A = [[_random_grassmann(alg, rng, 0) for _ in range(p)] for _ in range(p)]
    B = [[_random_grassmann(alg, rng, 1) for _ in range(q)] for _ in range(p)]
    C = [[_random_grassmann(alg, rng, 1) for _ in range(p)] for _ in range(q)]
    D = [[_random_grassmann(alg, rng, 0) for _ in range(q)] for _ in range(q)]
    for i in range(p):
        A[i][i] = A[i][i] + (7 + i)
    for i in range(q):
        D[i][i] = D[i][i] + (7 + i)
    return SuperMatrix.from_blocks(A, B, C, D)


def test_criterion_6_berezinian_suite(capsys):
    t0 = time.monotonic()
    ok = True
    alg = GrassmannAlgebra(("theta", "eta", "xi", "zeta"))
    rng = random.Random(66)
    for p, q, count in ((1, 1, 100), (2, 2, 100)):
        for _ in range(count):
            M = _random_supermatrix(alg, rng, p, q)
            N = _random_supermatrix(alg, rng, p, q)
            ok = ok and (M * N).berezinian() == \
                M.berezinian() * N.berezinian()
    for _ in range(20):
        c = rng.randint(1, 5)
        d = rng.randint(1, 6)
        e = rng.randint(1, 5)
        a = rng.randint(-4, 4)
        b = sp.Rational(a * d - e * e, c)
        phi = (a * z + b) / (c * z + d)
        psi = e / (c * z + d)
        ok = ok and verify_berezinian_transition(phi, psi).ok
    alg1 = GrassmannAlgebra(("theta",))
    sq = susy_generator_square(superconformal_derivation(alg1))
    ok = ok and sq.a == alg1.one() and sq.b.is_zero()
    dt = time.monotonic() - t0
    _report(capsys, 6, ok, dt,
            "Berezinian multiplicative on 200 supermatrices; 20 transitions "
            "verified; half-bracket of the generator is d/dz")
    assert ok


def test_criterion_7_superpoint_pushforward(capsys):
    t0 = time.monotonic()
    ok = True
    for g in (2, 3):
        X = _even_supercurve(g)
        for nu in (3, 4):
            expect = pluri_canonical_rank(X, nu).rank
            rng = random.Random(100 * g + nu)
            for _ in range(20):
                h = random_deformation(X.curve, rng=rng)
                rep = pushforward_over_superpoint(SuperPointFamily(X, h), nu)
                ok = ok and rep.free and rep.rank == expect
    dt = time.monotonic() - t0
    _report(capsys, 7, ok and dt < 120.0, dt,
            "sections over the superpoint are free of split rank, "
            "(g,nu) in {2,3}x{3,4}, 20 deformations each")
    assert ok
    assert dt < 120.0


def test_criterion_8_moduli_and_duality(capsys):
    t0 = time.monotonic()
    ok = True
    for g in range(2, 7):
        ok = ok and moduli_dimension(g) == RankPair(3 * g - 3, 2 * g - 2)
    for g in (2, 3):
        curve = standard_curve(g)
        for t in theta_characteristics(curve):
            X = make_split_supercurve(curve, t)
            ok = ok and is_autodual(X) and X.susy
    curve = HyperellipticCurve(polyq.from_roots(
        [Fraction(r) for r in (0, 1, 2, 3, -7)]))
    P = curve.point(Fraction(-1), y=Fraction(12))
    pts = (list(curve.rational_branch_points())
           + [P, P.conjugate(), curve.infinity()])
    K = canonical_class(curve)
    rng = random.Random(8)
    hits = 0
    while hits < 20:
        D = Divisor()
        for _ in range(4):
            D = D + Divisor.of_point(pts[rng.randrange(len(pts))])
        D = D + Divisor.of_point(curve.infinity(),
                                 (curve.genus - 1) - D.degree())
        if class_eq(curve, 2 * D, K.rep):
            continue
        X = SplitSupercurve(curve, DivisorClass(curve, D))
        ok = ok and not is_autodual(X) and not X.susy
        hits += 1
    dt = time.monotonic() - t0
    _report(capsys, 8, ok, dt,
            "moduli ranks 3g-3|2g-2; autodual exactly on theta classes, "
            "20 non-theta classes rejected")
    assert ok
