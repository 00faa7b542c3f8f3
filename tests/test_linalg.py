"""`linalg` against sympy's exact elimination, an independent oracle.

`kernel_basis` reads the null space off the reduced echelon basis of a
`ColumnSpace`, so the two share one elimination; here both are checked
against `sympy.Matrix.rref` and `Matrix.rank` on random rational
matrices with no rows, no columns, and zero, repeated and dependent rows.
"""

import random
from fractions import Fraction

import pytest
import sympy as sp

from plurisusy.linalg import ColumnSpace, kernel_basis


def _random_rows(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.1:
            rows.append([Fraction(0)] * ncols)
        elif roll < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif roll < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                         if rng.random() < 0.6 else Fraction(0)
                         for _ in range(ncols)])
    return rows


def _matrices(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        ncols = rng.randint(0, 7)
        yield rng, _random_rows(rng, rng.randint(0, 8), ncols), ncols


def _sympy(rows, ncols):
    return sp.Matrix(len(rows), ncols,
                     [sp.Rational(x.numerator, x.denominator)
                      for r in rows for x in r])


def _rref_kernel(M, ncols):
    """The null-space basis read off M.rref(): for each free column c,
    1 at c and -R[i, c] at the i-th pivot column."""
    R, pivots = M.rref()
    out = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, p in enumerate(pivots):
            e = R[i, c]
            v[p] = -Fraction(int(e.p), int(e.q))
        out.append(v)
    return out


def _in_span(rows, v, ncols):
    """Whether v lies in the row space of rows, by sympy's rank."""
    if not rows:
        return not any(v)
    return _sympy(rows, ncols).rank() == _sympy(rows + [v], ncols).rank()


def test_kernel_basis_is_the_rref_null_space():
    shapes = set()
    for _, rows, ncols in _matrices(3001, 400):
        assert kernel_basis(rows, ncols) == _rref_kernel(
            _sympy(rows, ncols), ncols), rows
        shapes.add((bool(rows), bool(ncols)))
    assert shapes == {(False, False), (False, True), (True, False),
                      (True, True)}


def test_column_space_rank_matches_sympy():
    for _, rows, ncols in _matrices(3002, 400):
        space = ColumnSpace(ncols)
        grew = [space.add(r) for r in rows]
        assert space.rank == _sympy(rows, ncols).rank() == sum(grew), rows


def test_reduce_is_zero_at_the_pivots_and_off_by_a_span_element():
    seen = {True: 0, False: 0}
    for rng, rows, ncols in _matrices(3003, 300):
        space = ColumnSpace(ncols)
        for r in rows:
            space.add(r)
        pivots = [p for p, _ in space.basis]
        combo = [Fraction(0)] * ncols
        for r in rows:  # a vector of the span, to reach both verdicts
            c = Fraction(rng.randint(-2, 2))
            combo = [x + c * y for x, y in zip(combo, r)]
        noise = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(ncols)]
        for v in (combo, noise):
            res = space.reduce(v)
            assert all(res[p] == 0 for p in pivots)
            assert _in_span(rows, [a - b for a, b in zip(v, res)], ncols)
            inside = _in_span(rows, v, ncols)
            assert inside == (not any(res)), (rows, v)
            seen[inside] += 1
    assert min(seen.values()) >= 50


def test_a_vector_of_another_length_is_a_value_error():
    space = ColumnSpace(3)
    space.add([1, Fraction(1, 2), 0])
    for vec in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(ValueError, match="length"):
            space.add(vec)
        with pytest.raises(ValueError, match="length"):
            space.reduce(vec)
    assert space.rank == 1
