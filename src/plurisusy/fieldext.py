"""Quadratic extensions of the rationals, exactly.

Elements are u + v*sqrt(d) with u, v rational (ints or Fractions; a float
raises TypeError) and d a squarefree integer (negative allowed).  The
squarefree normal form makes equality and hashing structural: sqrt(8) is
always stored as 2*sqrt(2).  Constructions with v == 0 collapse to the
base element, so a QuadExt instance always has a genuinely irrational
part.

Rows over one such field are compared for linear dependence exactly,
by `rows_independent` on field elements, or on their integer form
(`int_row`), read entry by entry and only as far as the verdict needs:
two rows by 2x2 minors (`int_rows_dependent`), many rows at once by
partition refinement on their normalised entries (`row_classes`).

The squarefree part is found by trial division up to 1000, then Pollard's
rho on what is left, each prime factor certified by the Miller-Rabin test
with the first 13 primes as bases, which is exact below about 3.3 * 10^24.
A number whose part left after trial division is not below that bound
raises ValueError: no factor is ever taken as prime on a probable-prime
test alone.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count
from math import gcd, isqrt
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .polyq import clear_denominators, rational


def rational_sqrt(fr: Fraction) -> Optional[Union[int, Fraction]]:
    """Exact square root of a nonnegative rational, as polyq.rational
    gives it, or None."""
    fr = Fraction(fr)
    if fr < 0:
        return None
    pn, qn = fr.numerator, fr.denominator
    rp, rq = isqrt(pn), isqrt(qn)
    if rp * rp == pn and rq * rq == qn:
        return rational(Fraction(rp, rq))
    return None


# Trial division reaches every prime up to this bound, so what is left
# then, and each factor of it, is prime when below the bound's square.
_TRIAL_BOUND = 1000
# Miller-Rabin with these bases, the first 13 primes, proves primality
# below _MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n with 41 < n < _MR_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard's rho."""
    for c in count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g


def _square_factors(n: int):
    """Pairs (p, e) with n = prod p^e for n >= 1, each p a certified
    prime.  Raises ValueError, before any rho step, when the part of n
    left by trial division is not below _MR_BOUND."""
    for q in range(2, _TRIAL_BOUND + 1):
        if q * q > n:
            break
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            yield q, e
    if n >= _MR_BOUND:
        raise ValueError(f"cannot certify the prime factors of {n}: it is "
                         f"not below {_MR_BOUND}, where the deterministic "
                         f"Miller-Rabin test stops")
    left = [n] if n > 1 else []
    primes = Counter()
    while left:
        m = left.pop()
        if m < _TRIAL_BOUND ** 2 or _is_prime(m):
            primes[m] += 1
        else:
            f = _rho(m)
            left += [f, m // f]
    yield from primes.items()


def sqrt_normal_form(fr: Fraction) -> Tuple[Union[int, Fraction], int]:
    """Write sqrt(fr) = coeff * sqrt(d) with d a squarefree integer.

    Returns (coeff, d), coeff as polyq.rational gives it; d == 1 means fr
    is a perfect square, d may be negative, and fr == 0 gives (0, 1).
    """
    fr = Fraction(fr)
    if fr == 0:
        return 0, 1
    n = fr.numerator * fr.denominator  # sqrt(p/q) = sqrt(p*q)/q
    sign = -1 if n < 0 else 1
    square = 1
    d = 1
    for q, e in _square_factors(abs(n)):
        square *= q ** (e // 2)
        if e % 2:
            d *= q
    return rational(Fraction(square, fr.denominator)), sign * d


def make_sqrt(fr: Fraction):
    """A square root of fr: a rational, as polyq.rational gives it, when
    fr is a perfect square, else a QuadExt generator coefficient in
    squarefree normal form."""
    coeff, d = sqrt_normal_form(fr)
    if d == 1:
        return coeff
    return QuadExt(0, coeff, d)


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


class QuadExt:
    """u + v*sqrt(d) with d a squarefree integer; u and v are ints or
    Fractions, as the coefficients of `polyq` are, and anything else, a
    float above all, raises TypeError."""

    __slots__ = ("u", "v", "d")

    def __init__(self, u, v, d: int):
        if not (_is_scalar(u) and _is_scalar(v)):
            raise TypeError(f"QuadExt parts must be ints or Fractions, "
                            f"got {u!r} and {v!r}")
        if v == 0:
            raise ValueError("QuadExt with zero irrational part; use qext()")
        self.u = u
        self.v = v
        self.d = d

    def __repr__(self):
        return f"({self.u} + {self.v}*sqrt({self.d}))"

    def norm(self):
        return self.u * self.u - self.v * self.v * self.d

    def __bool__(self):
        return True  # v != 0 by construction

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.d == other.d and self.u == other.u and self.v == other.v
        if _is_scalar(other):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.v, self.d))

    def __neg__(self):
        return QuadExt(-self.u, -self.v, self.d)

    def __add__(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError("cannot mix sqrt(%s) and sqrt(%s) directly" % (self.d, other.d))
            return qext(self.u + other.u, self.v + other.v, self.d)
        if _is_scalar(other):
            return QuadExt(self.u + other, self.v, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError("cannot mix sqrt(%s) and sqrt(%s) directly" % (self.d, other.d))
            return qext(
                self.u * other.u + self.v * other.v * self.d,
                self.u * other.v + self.v * other.u,
                self.d,
            )
        if _is_scalar(other):
            if other == 0:
                return 0
            return QuadExt(self.u * other, self.v * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def inv(self):
        nr = self.norm()
        if nr == 0:
            raise ZeroDivisionError("zero divisor in quadratic extension")
        inv = Fraction(1) / nr
        return qext(self.u * inv, -self.v * inv, self.d)

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            return self * other.inv()
        if _is_scalar(other):
            if other == 0:
                raise ZeroDivisionError
            return QuadExt(self.u / Fraction(other), self.v / Fraction(other), self.d)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inv() * other


def qext(u, v, d: int):
    """Normalizing constructor: collapses a zero irrational part."""
    if v == 0:
        return u
    return QuadExt(u, v, d)


def normalised(row: Sequence) -> Optional[List]:
    """The row scaled so that its first nonzero entry is 1; None for a
    zero row.  Two rows are dependent iff either is zero or their
    normalised forms are equal (see rows_independent)."""
    for x in row:
        if x != 0:
            inv = Fraction(1) / x
            return [e * inv for e in row]
    return None


def rows_independent(row1: Sequence, row2: Sequence) -> bool:
    """Exact rank-2 test for two rows of field elements.

    The entries of one row share one field Q(sqrt(d)); the two rows may
    live in different ones.  Nonzero rows are dependent iff their
    normalised forms agree in Q(sqrt(d1), sqrt(d2)).  With d1 != d2
    squarefree, an element of Q(sqrt(d1)) equals one of Q(sqrt(d2)) only
    when both are rational, so structural equality decides it.
    """
    s1, s2 = normalised(row1), normalised(row2)
    return s1 is not None and s2 is not None and s1 != s2


# A row of entries u_j + v_j sqrt(d) with integers u_j and v_j, stored as
# (us, vs, d); vs is None for a row of integers.
IntRow = Tuple[List[int], Optional[List[int]], int]


def int_row(row: Sequence) -> IntRow:
    """The row of rationals and QuadExts of one field Q(sqrt d) as an
    IntRow, up to a positive rational factor."""
    quad = [x for x in row if isinstance(x, QuadExt)]
    d = quad[0].d if quad else 1
    _, (us, vs) = clear_denominators(
        [x.u if isinstance(x, QuadExt) else x for x in row],
        [x.v if isinstance(x, QuadExt) else 0 for x in row])
    return (us, vs if d != 1 else None, d)


# A reader of a row's entries j -> (u, v), meaning u + v sqrt d with
# integers u, v; the rules below read a row only as far as they need.
Entries = Callable[[int], Tuple[int, int]]


def int_entries(row: IntRow) -> Entries:
    us, vs, _ = row
    return (lambda j: (us[j], vs[j])) if vs else (lambda j: (us[j], 0))


def anchor(r: Entries, n: int) -> Optional[int]:
    """The index of the first nonzero of the n entries of r, or None."""
    for j in range(n):
        if r(j) != (0, 0):
            return j
    return None


def int_rows_dependent(r0: Entries, r1: Entries, n: int, d: int) -> bool:
    """Whether rows r0 of Q(sqrt d) and r1 (in r0's field, or r0 is
    rational) of n entries are dependent: with i r0's anchor, exactly
    when r0 is zero or every minor r0[i] r1[j] - r0[j] r1[i] vanishes,
    the rule of rows_independent.  r0 is read up to i, r1 at i, then
    both at j = 0, 1, ... up to the first nonzero minor."""
    i = anchor(r0, n)
    if i is None:
        return True
    (a, b), (c, e) = r0(i), r1(i)
    for j in range(n):
        if j != i:
            (u, v), (p, q) = r0(j), r1(j)
            if (a * p + b * q * d != u * c + v * e * d
                    or a * q + b * p != u * e + v * c):
                return False
    return True


def quotient_key(e: Tuple[int, int], a: Tuple[int, int], d: int):
    """A key of e / a in Q(sqrt d), a nonzero: its reduced rational part
    alone when its sqrt(d) part is 0, else both parts with d.  Keys are
    equal exactly when the quotients are, as in rows_independent."""
    (u, v), (p, q) = e, a
    if v or q:  # times the conjugate of a, over its norm
        u, v, p = u * p - v * q * d, v * p - u * q, p * p - q * q * d
    g = gcd(u, v, p) if p > 0 else -gcd(u, v, p)
    return (u // g, v // g, p // g, d) if v else (u // g, p // g)


def row_classes(rows: Sequence[Tuple[Entries, int]],
                n: int) -> List[Optional[int]]:
    """Classes of rows (r, d) of n entries in Q(sqrt d): two are dependent
    exactly when either class is None (a zero row) or they are equal.  By
    partition refinement: the rows are grouped by anchor i, then each
    group of two or more is split by r(j) / r(i) (quotient_key) for
    j = i + 1, ..., until it is a singleton or j reaches n."""
    classes: Dict[int, int] = {}
    groups: Dict[Optional[int], List[int]] = {}
    for k, (r, _) in enumerate(rows):
        groups.setdefault(anchor(r, n), []).append(k)
    todo = [(ks, i + 1, i) for i, ks in groups.items() if i is not None]
    while todo:
        ks, j, i = todo.pop()
        if len(ks) == 1 or j == n:
            classes.update(dict.fromkeys(ks, ks[0]))
            continue
        split: Dict[tuple, List[int]] = {}
        for k in ks:
            r, d = rows[k]
            split.setdefault(quotient_key(r(j), r(i), d), []).append(k)
        todo += [(part, j + 1, i) for part in split.values()]
    return [classes.get(k) for k in range(len(rows))]
