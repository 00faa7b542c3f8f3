"""Rational roots by Hensel lifting, against sympy's factorization over Q."""

import random
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import isqrt

import pytest
import sympy as sp

from plurisusy import polyq


def _pow(p, n):
    return reduce(polyq.mul, [p] * n, polyq.ONE)


def _oracle(p):
    """Roots and cofactor read off sympy's factor_list over Q."""
    x = sp.Symbol("x")
    _, factors = sp.Poly([sp.Rational(c.numerator, c.denominator)
                          for c in reversed(p)], x).factor_list()
    roots, cofactor = [], polyq.ONE
    for fac, mult in factors:
        cs = [Fraction(int(c.p), int(c.q)) for c in fac.all_coeffs()]
        if len(cs) == 2:
            roots.append((-cs[1] / cs[0], mult))
        else:
            cofactor = polyq.mul(cofactor,
                                 _pow(polyq.poly(reversed(cs)), mult))
    return sorted(roots), cofactor


def _check(p):
    got = polyq.rational_roots(p)
    assert got == _oracle(p), p
    return got


def _linear(r):
    return polyq.poly([-r, 1])


def _random_factor(rng):
    kind = rng.randrange(6)
    if kind < 3:  # a rational root, integer or not, often 0
        return _linear(Fraction(rng.randint(-12, 12), rng.randint(1, 5)))
    if kind == 3:  # quadratic, usually irreducible
        return polyq.poly([rng.randint(-9, 9), rng.randint(-9, 9), 1])
    if kind == 4:  # cubic with rational coefficients, not monic
        return polyq.poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(3)] + [rng.randint(1, 7)])
    # coefficients near 10^30
    return polyq.poly([rng.randint(-10 ** 30, 10 ** 30) for _ in range(2)]
                      + [rng.choice([1, 10 ** 30 + 7])])


def test_random_products_match_sympy():
    rng = random.Random(8)
    for _ in range(300):
        p = (Fraction(rng.choice([1, -1, 3, Fraction(-2, 3), 10 ** 30])),)
        for _ in range(rng.randint(0, 5)):
            p = polyq.mul(p, _pow(_random_factor(rng),
                                  rng.choice([1, 1, 2, 3])))
        _check(p)


def test_roots_multiplicities_and_cofactor():
    half, third = Fraction(1, 2), Fraction(-7, 3)
    p = polyq.mul(_pow(_linear(half), 3),
                  polyq.mul(_pow(polyq.X, 2), _linear(third)))
    p = polyq.mul(polyq.scale(p, Fraction(-6, 5)),
                  _pow(polyq.poly([2, 0, 1]), 2))
    roots, cofactor = _check(p)
    assert roots == [(third, 1), (Fraction(0), 2), (half, 3)]
    assert cofactor == polyq.poly([4, 0, 4, 0, 1])


@pytest.mark.parametrize("coeffs", [
    [5], [Fraction(-3, 7)],                 # constants
    [0, 1], [0, 0, 0, 2],                   # roots at 0 only
    [1, 0, 1], [-2, 0, 0, 1], [1, 1, 1, 1, 1],  # no rational root
    [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],  # x^11 - 1
    [10 ** 30 + 1, -(10 ** 30 + 2), 1],     # roots 1 and 10^30 + 1
])
def test_edge_polynomials_match_sympy(coeffs):
    _check(polyq.poly(coeffs))


def test_split_curves_of_the_census_shape():
    rng = random.Random(3)
    for _ in range(40):
        roots = sorted(rng.sample(range(-6, 7), rng.choice([5, 7, 9, 11])))
        got = _check(polyq.from_roots([Fraction(r) for r in roots]))
        assert got == ([(Fraction(r), 1) for r in roots], polyq.ONE)


# The earlier rational_roots, kept as a second oracle: every prime is
# scanned in full, roots lift past twice the Cauchy bound, and each root's
# multiplicity is counted by trial division, squarefree input or not.

def _reference_primes():
    n = 2
    while True:
        if all(n % q for q in range(2, isqrt(n) + 1)):
            yield n
        n += 1


def _reference_integer_roots(b):
    db = polyq.int_derivative(b)
    for prime in _reference_primes():
        bp = [c % prime for c in b]
        found = [z for z in range(prime) if polyq.eval_at(bp, z) % prime == 0]
        if all(polyq.eval_at(db, z) % prime for z in found):
            break
    bound = 2 * (1 + max(map(abs, b[:-1]), default=0))
    roots = []
    for z in found:
        m = prime
        while m <= bound:
            m *= m
            step = polyq.eval_at(b, z) * pow(polyq.eval_at(db, z), -1, m)
            z = (z - step) % m
        if z > m // 2:
            z -= m
        if polyq.eval_at(b, z) == 0:
            roots.append(z)
    return roots


def _reference_rational_roots(p):
    rest = polyq._primitive_ints(p)
    s = polyq._int_div(rest, polyq._int_gcd(rest, polyq.int_derivative(rest)))
    n, lc = len(s) - 1, s[-1]
    b = [c * lc ** (n - 1 - i) for i, c in enumerate(s[:-1])] + [1]
    roots = []
    for z in sorted(_reference_integer_roots(b)):
        r = Fraction(z, lc)
        m = 0
        while (q := polyq._int_div(rest, [-r.numerator, r.denominator])
               ) is not None:
            rest, m = q, m + 1
        roots.append((r, m))
    return roots, (polyq.poly(rest) if len(rest) > 1 else polyq.ONE)


def _check_both(p):
    got = _check(p)
    assert got == _reference_rational_roots(p), p
    return got


def _first_good_prime(roots):
    """The first prime at which the distinct integer roots stay distinct."""
    return next(q for q in _reference_primes()
                if len({r % q for r in roots}) == len(roots))


def test_roots_near_the_lifting_bound():
    # |root| close to the Cauchy and Fujiwara bounds, across the powers
    # of two where the rounded Fujiwara bound steps
    rng = random.Random(41)
    big = [2 ** k + d for k in range(8, 70, 3) for d in (-1, 0, 1)]
    for R in [*range(1, 130), *big]:
        for n in (2, 3, 5):  # x^n - R^n: the bound is within 4 |R|
            p = polyq.poly([-(R ** n)] + [0] * (n - 1) + [1])
            assert Fraction(R) in [r for r, _ in _check_both(p)[0]]
        if R in big or R % 7 == 0:
            for roots in ([R], [-R], [R, -R], [R, R - 1, 0],
                          [R, -1, 1], [-R, 2, 3, -5]):
                got = _check_both(polyq.from_roots(roots))
                assert [r for r, _ in got[0]] == sorted(set(roots))
    for _ in range(100):
        R = rng.randint(2, 10 ** rng.randint(1, 25))
        roots = {rng.choice([R, -R]), *(rng.randint(-9, 9)
                                       for _ in range(rng.randint(0, 4)))}
        lc = rng.choice([1, 1, 3, 10 ** 12 + 39])
        _check_both(polyq.scale(polyq.from_roots(sorted(roots)), lc))


@pytest.mark.parametrize("roots", [
    [0, 30030],                       # 2 * 3 * 5 * 7 * 11 * 13
    [-30030, 0, 30030, 1],
    [0, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 7],
    [0, 614889782588491410, -1],     # the primes up to 47: first good is 53
])
def test_first_good_prime_above_13(roots):
    assert _first_good_prime(roots) > 13
    for lc in (1, -5, 10 ** 30):
        got = _check_both(polyq.scale(polyq.from_roots(roots), lc))
        assert got == ([(Fraction(r), 1) for r in sorted(roots)], polyq.ONE)
    p = polyq.mul(polyq.from_roots(roots), polyq.poly([2, 0, 1]))
    assert _check_both(p)[1] == polyq.poly([2, 0, 1])


def test_primes_continue_past_the_memoised_ones():
    got = list(islice(polyq._primes(), 60))
    assert got == list(islice(_reference_primes(), 60))


def test_repeated_rational_and_quadratic_factors():
    rng = random.Random(43)
    quadratics = [polyq.poly(c) for c in ([1, 0, 1], [2, 0, 1], [1, 1, 1],
                                         [-3, 0, 7], [5, Fraction(1, 2), 3])]
    for _ in range(150):
        p = (Fraction(rng.choice([1, -2, Fraction(5, 3)])),)
        for _ in range(rng.randint(1, 3)):
            q = rng.choice(quadratics)
            p = polyq.mul(p, _pow(q, rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            r = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            p = polyq.mul(p, _pow(_linear(r), rng.randint(1, 4)))
        _check_both(p)
    # no rational root, yet not squarefree
    p = polyq.mul(_pow(quadratics[0], 2), _pow(quadratics[3], 3))
    assert _check_both(p) == ([], polyq.poly(polyq._primitive_ints(p)))


def test_non_monic_with_large_leading_coefficients():
    rng = random.Random(47)
    for _ in range(150):
        lc = rng.choice([10 ** 30, -(10 ** 30), 10 ** 30 - 1,
                         rng.randint(2, 10 ** 30)])
        roots = [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                          rng.randint(1, 10 ** 4))
                 for _ in range(rng.randint(1, 5))]
        p = polyq.scale(polyq.from_roots(roots), lc)
        if rng.random() < 0.5:
            p = polyq.mul(p, rng.choice([polyq.poly([3, 0, 1]), _linear(
                roots[0]), polyq.poly([Fraction(1, 10 ** 30), 1, 1])]))
        _check_both(p)


def test_split_squarefree_input_needs_no_trial_division(monkeypatch):
    def refuse(*args):
        raise AssertionError("_int_div called on split squarefree input")

    monkeypatch.setattr(polyq, "_int_div", refuse)
    rng = random.Random(53)
    for _ in range(60):
        roots = sorted({Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                        for _ in range(rng.randint(1, 9))})
        lc = rng.choice([1, -1, 7, Fraction(2, 3), 10 ** 30])
        got = polyq.rational_roots(polyq.scale(polyq.from_roots(roots), lc))
        assert got == ([(r, 1) for r in roots], polyq.ONE)


def _random_squarefree(rng):
    """A squarefree polynomial: distinct rational roots times distinct
    irreducible quadratics and cubics (none with a rational root), under
    a leading coefficient that may be negative, a Fraction or 10^30."""
    roots = {Fraction(rng.randint(-12, 12), rng.randint(1, 5))
             for _ in range(rng.randint(0, 6))}
    p = polyq.from_roots(sorted(roots))
    quadratics = [(1, 0, 1), (2, 0, 1), (1, 1, 1), (-3, 0, 7),
                  (5, Fraction(1, 2), 3), (10 ** 30 + 1, 0, 1)]
    cubics = [(-2, 0, 0, 1), (1, 1, 0, 1), (Fraction(3, 2), -1, 0, 4),
              (-10 ** 30 - 7, 0, 0, 1)]
    for c in rng.sample(quadratics, rng.randint(0, 2)) + rng.sample(
            cubics, rng.randint(0, 1)):
        p = polyq.mul(p, polyq.poly(c))
    lc = rng.choice([1, -1, -7, Fraction(2, 3), Fraction(-5, 4), 10 ** 30,
                     -(10 ** 30)])
    return polyq.scale(p, lc)


def test_squarefree_keyword_agrees_without_a_gcd(monkeypatch):
    rng = random.Random(59)
    cases = [_random_squarefree(rng) for _ in range(300)]
    cases = [p for p in cases if polyq.deg(p) > 0]
    assert all(polyq.is_squarefree(p) for p in cases)
    want = [polyq.rational_roots(p) for p in cases]
    assert want == [_reference_rational_roots(p) for p in cases]

    def refuse(*args):
        raise AssertionError("_int_gcd called under squarefree=True")

    monkeypatch.setattr(polyq, "_int_gcd", refuse)
    got = [polyq.rational_roots(p, squarefree=True) for p in cases]
    assert got == want
    split = sum(cof == polyq.ONE for _, cof in got)
    assert min(split, len(got) - split) >= 40, split
    assert sum(not roots for roots, _ in got) >= 10
    assert sum(polyq.lead(p) < 0 for p in cases) >= 50
    assert sum(polyq.lead(p).denominator > 1 for p in cases) >= 50


def test_zero_polynomial_is_rejected():
    with pytest.raises(ValueError, match="zero polynomial"):
        polyq.rational_roots(polyq.ZERO)


def _euclid_gcd(p, q):
    """Monic gcd by the Euclidean algorithm in Fraction arithmetic."""
    while q:
        p, q = q, polyq.divmod_(p, q)[1]
    return polyq.monic(p)


def test_gcd_matches_euclid():
    rng = random.Random(17)

    def rand(n):
        return polyq.poly(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                          for _ in range(n))

    for _ in range(300):
        p, q = rand(rng.randint(0, 6)), rand(rng.randint(0, 6))
        if rng.random() < 0.5:
            common = rand(rng.randint(1, 4))
            p, q = polyq.mul(p, common), polyq.mul(q, common)
        assert polyq.gcd(p, q) == _euclid_gcd(p, q), (p, q)
    p = polyq.poly([Fraction(3, 2), 0, -3])
    assert polyq.gcd(p, polyq.ZERO) == polyq.gcd(polyq.ZERO, p) == polyq.monic(p)
    assert polyq.gcd(polyq.ZERO, polyq.ZERO) == polyq.ZERO


def _fraction_shift(p, x0):
    """p(x0 + t) by the in-place Taylor shift in Fraction arithmetic."""
    x0 = Fraction(x0)
    cs = list(p)
    n = len(cs)
    for i in range(n):
        for k in range(n - 2, i - 1, -1):
            cs[k] += x0 * cs[k + 1]
    return polyq.poly(cs)


def _int_or_fraction(p) -> bool:
    """polyq's invariant: each coefficient is an int when its denominator
    is 1 and a Fraction otherwise."""
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in p)


def test_taylor_matches_fraction_shift():
    rng = random.Random(23)
    for _ in range(600):
        p = polyq.poly(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                       * rng.choice([1, 1, 10 ** 12])
                       for _ in range(rng.randint(1, 9)))
        x0 = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if rng.random() < 0.1:
            x0 = Fraction(0)
        full = _fraction_shift(p, x0)
        assert polyq.shift(p, x0) == full, (p, x0)
        for n in range(len(p) + 3):
            got = polyq.taylor(p, x0, n)
            assert got == polyq.poly(full[:n]), (p, x0, n)
            assert _int_or_fraction(got)


def test_taylor_edges():
    assert polyq.taylor(polyq.ZERO, Fraction(3, 7), 4) == polyq.ZERO
    assert polyq.shift(polyq.ZERO, -2) == polyq.ZERO
    p = polyq.poly([1, 2, 1])  # (x + 1)^2
    assert polyq.taylor(p, -1, 10) == polyq.poly([0, 0, 1])
    assert polyq.taylor(p, -1, 2) == polyq.ZERO  # t^2 mod t^2
    assert polyq.taylor(p, 0, 0) == polyq.ZERO
    assert polyq.taylor(p, Fraction(1, 2), 1) == (Fraction(9, 4),)


def _mult_by_division(p, x0):
    """The earlier mult_at: evaluate, then divide by x - x0, until p(x0)
    is not 0."""
    m = 0
    while polyq.eval_at(p, x0) == 0:
        p = polyq.exact_div(p, (-Fraction(x0), Fraction(1)))
        m += 1
    return m


def test_mult_at_matches_repeated_division():
    rng = random.Random(29)
    for _ in range(400):
        roots = {Fraction(rng.randint(-9, 9), rng.randint(1, 5)):
                 rng.randint(0, 4) for _ in range(rng.randint(1, 4))}
        cofactor = polyq.poly(Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                              for _ in range(rng.randint(1, 5)))
        p = polyq.mul(polyq.from_roots([r for r, m in roots.items()
                                        for _ in range(m)]),
                      cofactor or polyq.ONE)
        for x0 in list(roots) + [Fraction(rng.randint(-9, 9), 3)]:
            m = _mult_by_division(p, x0)
            assert polyq.mult_at(p, x0) == m, (p, x0)
            assert m >= roots.get(x0, 0)
            for most in range(m + 2):
                k, q = polyq.deflate(p, x0, most)
                assert k == min(m, most)
                assert polyq.mul(q, polyq.from_roots([x0] * k)) == p
                assert _int_or_fraction(q)
    with pytest.raises(ValueError):
        polyq.mult_at(polyq.ZERO, 1)


# All-Fraction reference arithmetic for the differential test below:
# ascending lists of Fractions with no trailing zeros, computed without
# polyq, as every coefficient of polyq was a Fraction before it kept
# integral ones as ints.

def _ref(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_mul(p, q):
    cs = [Fraction(0)] * max(0, len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            cs[i + j] += Fraction(a) * b
    return _ref(cs)


def _ref_divmod(p, q):
    rem, quot = _ref(p), [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q):
        k = len(rem) - len(q)
        quot[k] = c = rem[-1] / Fraction(q[-1])
        rem = _ref(r - c * q[i - k] if i >= k else r
                   for i, r in enumerate(rem))
    return _ref(quot), rem


def _ref_deflate(p, x0, most):
    m = 0
    while m < most:
        quot, rem = _ref_divmod(p, [-Fraction(x0), Fraction(1)])
        if rem:
            break
        p, m = quot, m + 1
    return m, _ref(p)


def _ref_taylor(p, x0, n):
    acc = []  # Horner in x0 + t
    for c in reversed(p):
        acc = _ref_mul(acc, [x0, 1])
        acc = _ref([Fraction(c) + (acc[0] if acc else 0)] + acc[1:])
    return _ref(acc[:n])


def _ref_gcd(p, q):
    p, q = _ref(p), _ref(q)
    while q:
        p, q = q, _ref_divmod(p, q)[1]
    return _ref(c / p[-1] for c in p) if p else []


def _mixed(rng, n):
    """n coefficients as a tuple, each an int, an integral Fraction or a
    Fraction of denominator 2..6, the last nonzero."""
    def coefficient():
        num = rng.randint(-12, 12)
        return rng.choice([num, Fraction(num),
                           Fraction(num, rng.randint(2, 6))])
    cs = [coefficient() for _ in range(n)]
    if cs:
        cs[-1] = cs[-1] or rng.choice([1, Fraction(-3), Fraction(5, 4)])
    return tuple(cs)


def test_int_and_fraction_coefficients_match_fraction_arithmetic():
    """polyq on mixed int and Fraction coefficients equals the all-Fraction
    reference, and every result keeps an integral coefficient as an int
    and any other as a Fraction."""
    rng = random.Random(31)
    for _ in range(300):
        p, q = _mixed(rng, rng.randint(0, 7)), _mixed(rng, rng.randint(1, 5))
        c = _mixed(rng, 1)[0]
        x0 = rng.choice([rng.randint(-4, 4),
                         Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
        roots = [rng.choice([x0, rng.randint(-3, 3), Fraction(1, 2)])
                 for _ in range(rng.randint(0, 4))]
        results = [
            (polyq.mul(p, q), _ref_mul(p, q)),
            (polyq.scale(p, c), _ref(a * Fraction(c) for a in p)),
            (polyq.from_roots(roots),
             reduce(_ref_mul, ([-Fraction(r), 1] for r in roots), [1])),
            (polyq.gcd(p, q), _ref_gcd(p, q)),
            (polyq.taylor(p, x0, 4), _ref_taylor(p, x0, 4)),
            *zip(polyq.divmod_(p, q), _ref_divmod(p, q)),
        ]
        # p times (x - x0)^k has x0 as a root of multiplicity at least k
        lifted = polyq.mul(p, polyq.from_roots(roots))
        if lifted:
            for most in (0, 2, 9):
                k, quot = polyq.deflate(lifted, x0, most)
                want_k, want = _ref_deflate(lifted, x0, most)
                assert k == want_k, (lifted, x0, most)
                results.append((quot, want))
        for got, want in results:
            assert list(got) == want, (p, q, c, x0, roots)
            assert _int_or_fraction(got), got
