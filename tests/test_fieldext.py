"""The exact rank-2 row test, the normalised-row rule it rests on,
verify_embedding's integer row keys and its integer minor rule, against
a sympy oracle on every 2x2 minor or against rows_independent; square
roots in squarefree normal form against sympy's factorint."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from plurisusy import fieldext
from plurisusy.fieldext import (_MR_BOUND, QuadExt, _square_factors,
                                int_row, int_rows_dependent, make_sqrt,
                                normalised, qext, row_key, rows_independent,
                                sqrt_normal_form)

DS = (1, 2, 3, -1, 6)


def _sym(x):
    if isinstance(x, QuadExt):
        return sp.Rational(x.u) + sp.Rational(x.v) * sp.sqrt(x.d)
    return sp.Rational(Fraction(x))


def _oracle(row1, row2):
    a = [_sym(x) for x in row1]
    b = [_sym(x) for x in row2]
    return any(sp.expand(a[i] * b[j] - a[j] * b[i]) != 0
               for i in range(len(a)) for j in range(i + 1, len(a)))


def _rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _element(rng, d):
    """Zero about a third of the time; irrational only when d != 1."""
    if rng.random() < 0.35:
        return Fraction(0)
    v = _rational(rng) if d != 1 and rng.random() < 0.6 else 0
    return qext(_rational(rng), v, d)


def _row(rng, d, n):
    return [_element(rng, d) for _ in range(n)]


def _check(row1, row2):
    assert rows_independent(row1, row2) == _oracle(row1, row2), (row1, row2)
    assert rows_independent(row2, row1) == _oracle(row1, row2), (row2, row1)
    # verify_embedding's pair rule on rows normalised once per point
    n1, n2 = normalised(row1), normalised(row2)
    assert (n1 is None or n2 is None or n1 == n2) != _oracle(row1, row2)
    for n in (n1, n2):
        assert n is None or next(x for x in n if x != 0) == 1
    # the same rule on integer keys, with the columns scaled alike
    lam = [Fraction(j + 2, 3) for j in range(len(row1))]
    k1, k2 = (row_key(int_row([x * c for x, c in zip(r, lam)]))
              for r in (row1, row2))
    assert (k1 is None or k2 is None or k1 == k2) != _oracle(row1, row2)


def test_random_rows_match_minor_oracle():
    rng = random.Random(20)
    for _ in range(400):
        n = rng.randint(1, 5)
        _check(_row(rng, rng.choice(DS), n), _row(rng, rng.choice(DS), n))


def test_proportional_rows_are_dependent():
    rng = random.Random(21)
    for _ in range(200):
        d = rng.choice(DS)
        r1 = _row(rng, d, rng.randint(1, 5))
        lam = _element(rng, d)
        r2 = [lam * e for e in r1]
        _check(r1, r2)
        if lam != 0:
            assert not rows_independent(r1, r2)


def test_zero_rows_are_dependent():
    zero = [Fraction(0)] * 3
    assert not rows_independent(zero, zero)
    assert not rows_independent(zero, [make_sqrt(Fraction(2)), 1, 0])
    assert not rows_independent([1, make_sqrt(Fraction(-3)), 0], zero)


@pytest.mark.parametrize("d1, d2", [(1, 2), (2, 3), (-1, 6), (3, 3)])
def test_leading_entries_at_different_indices(d1, d2):
    rng = random.Random(22)
    for _ in range(50):
        r1 = [Fraction(0)] + _row(rng, d1, 3)
        r2 = _row(rng, d2, 4)
        r1[1] = r1[1] or Fraction(1)
        r2[0] = r2[0] or make_sqrt(Fraction(d2)) + 1
        assert rows_independent(r1, r2)
        _check(r1, r2)


def test_cross_field_dependent_pair():
    rng = random.Random(23)
    s2, s3 = make_sqrt(Fraction(2)), make_sqrt(Fraction(3))
    for _ in range(50):
        v = [_rational(rng) for _ in range(rng.randint(1, 5))]
        if not any(v):
            continue
        r1 = [s2 * c for c in v]
        r2 = [(1 + s3) * c for c in v]
        assert not rows_independent(r1, r2)
        _check(r1, r2)
    # a rational perturbation of one entry makes the rows independent
    r1 = [s2, 2 * s2]
    r2 = [1 + s3, 2 * (1 + s3) + 1]
    assert rows_independent(r1, r2)
    _check(r1, r2)
    # equal coefficients over different fields are different numbers
    for d1, d2 in [(2, 3), (-1, 6), (3, -1)]:
        r1 = [Fraction(1), make_sqrt(Fraction(d1))]
        r2 = [Fraction(1), make_sqrt(Fraction(d2))]
        assert rows_independent(r1, r2)
        _check(r1, r2)


def _entries(row):
    """A reader of the IntRow's entries as (p, q) pairs, and the list of
    the indices it has read."""
    us, vs, _ = row
    reads = []

    def read(j):
        reads.append(j)
        return us[j], vs[j] if vs else 0

    return read, reads


@pytest.mark.parametrize("d", [1, 2, 5, -1, -3, -6])
def test_integer_minor_rule_matches_rows_independent(d):
    # row 0's first nonzero entry i is past entry 0, and row 1 is often 0
    # at i; the rule reads row 1 at i, then at j = 0, 1, ... up to the
    # first nonzero minor row0[i] row1[j] - row0[j] row1[i], and no further
    rng = random.Random(24 + d)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(2, 6)
        row0, row1 = _row(rng, d, n), _row(rng, d, n)
        i = rng.randrange(n)
        row0[:i] = [Fraction(0)] * i
        row0[i] = row0[i] or qext(_rational(rng) or 1, 1 if d != 1 else 0, d)
        if rng.random() < 0.5:
            row1[i] = Fraction(0)
        if rng.random() < 0.2:
            lam = _element(rng, d)
            row1 = [lam * x for x in row0]
        if rng.random() < 0.05:
            row0 = [Fraction(0)] * n
        r0 = int_row([x * (j + 1) for j, x in enumerate(row0)])
        read, reads = _entries(int_row([x * (j + 1)
                                        for j, x in enumerate(row1)]))
        dependent = int_rows_dependent(r0, read)
        assert dependent != rows_independent(row0, row1), (row0, row1)
        seen[dependent] += 1
        if not any(row0):
            assert reads == []
            continue
        order = [j for j in range(n) if j != i]
        first = next((k for k, j in enumerate(order)
                      if row0[i] * row1[j] - row0[j] * row1[i] != 0),
                     len(order))
        assert reads == [i] + order[:first + 1], (row0, row1, reads)
    assert min(seen.values()) >= 40, seen


def test_row_mixing_two_fields_is_rejected():
    s2, s3 = make_sqrt(Fraction(2)), make_sqrt(Fraction(3))
    with pytest.raises(ValueError):
        rows_independent([s2, s3], [1, 1])


def _sqrt_oracle(fr):
    fr = Fraction(fr)
    n = fr.numerator * fr.denominator
    square, d = 1, -1 if n < 0 else 1
    for prime, exp in sp.factorint(abs(n)).items():
        square *= prime ** (exp // 2)
        d *= prime ** (exp % 2)
    return Fraction(square, fr.denominator), d


# Primes above the trial-division bound of 1000.
P1, P2, P3 = 1009, 1013, 1019


@pytest.mark.parametrize("n", [
    P1 ** 2, 12 * P1 ** 2, (P1 * P2) ** 2,     # leftover a square
    P1, 18 * P1, 999983, P1 * P2, 50 * P1 * P2,  # prime or pq, squarefree
    P1 * P2 * P3, 10 ** 9 + 7, 7 * P1 ** 3,      # leftover >= 10^9: fallback
    P1 ** 4, 2 ** 40 * 3 ** 7, 1000 ** 3,
    # leftovers between 2^64 and the Miller-Rabin bound over P2: a prime,
    # three primes, a square times a prime, a cube, two primes near 2^33
    # and 2^37
    2 ** 64 + 13, P1 * (10 ** 9 + 7) * (10 ** 9 + 9),
    (10 ** 6 + 3) ** 2 * (10 ** 9 + 7), (10 ** 7 + 19) ** 3,
    8589934609 * 137438953481,
])
def test_sqrt_normal_form_matches_factorint(n):
    for fr in (Fraction(n), Fraction(-n), Fraction(n, 45),
               Fraction(-7, n), Fraction(n, P2)):
        assert sqrt_normal_form(fr) == _sqrt_oracle(fr), fr


def test_sqrt_normal_form_of_random_rationals():
    rng = random.Random(24)
    for _ in range(500):
        fr = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 6))
        if fr:
            assert sqrt_normal_form(fr) == _sqrt_oracle(fr), fr
    assert sqrt_normal_form(Fraction(0)) == (Fraction(0), 1)


def test_strong_pseudoprimes_are_split():
    """Composites that pass Miller-Rabin to the first 9 and 12 primes."""
    for n in (3825123056546413051, 318665857834031151167461):
        assert dict(_square_factors(n)) == sp.factorint(n)
        assert sqrt_normal_form(Fraction(n)) == _sqrt_oracle(Fraction(n))


@pytest.mark.parametrize("n", [
    2 ** 89 - 1, 7 * (2 ** 89 - 1), (10 ** 13 + 37) ** 2,
    P1 * (10 ** 6 + 3) * (10 ** 9 + 7) * (10 ** 9 + 9),  # small, yet refused
])
def test_leftover_above_the_miller_rabin_bound_is_refused(monkeypatch, n):
    def refuse(m):
        raise AssertionError(f"rho ran on {m}")

    monkeypatch.setattr(fieldext, "_rho", refuse)
    leftover = n // 7 if n % 7 == 0 else n
    assert leftover >= _MR_BOUND
    with pytest.raises(ValueError, match=f"factors of {leftover}: "):
        sqrt_normal_form(Fraction(n))
