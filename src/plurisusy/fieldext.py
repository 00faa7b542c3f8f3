"""Quadratic extensions of the rationals, exactly.

Elements are u + v*sqrt(d) with u, v rational and d a squarefree integer
(negative allowed).  The squarefree normal form makes equality and hashing
structural: sqrt(8) is always stored as 2*sqrt(2).  Constructions with
v == 0 collapse to the base element, so a QuadExt instance always has a
genuinely irrational part.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Tuple, Union


def rational_sqrt(fr: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    fr = Fraction(fr)
    if fr < 0:
        return None
    pn, qn = fr.numerator, fr.denominator
    rp, rq = isqrt(pn), isqrt(qn)
    if rp * rp == pn and rq * rq == qn:
        return Fraction(rp, rq)
    return None


def sqrt_normal_form(fr: Fraction) -> Tuple[Fraction, int]:
    """Write sqrt(fr) = coeff * sqrt(d) with d a squarefree integer.

    Returns (coeff, d); d == 1 means fr is a perfect square, d may be
    negative, and fr == 0 gives (0, 1).
    """
    import sympy

    fr = Fraction(fr)
    if fr == 0:
        return Fraction(0), 1
    n = fr.numerator * fr.denominator  # sqrt(p/q) = sqrt(p*q)/q
    sign = -1 if n < 0 else 1
    square = 1
    d = 1
    for prime, exp in sympy.factorint(abs(n)).items():
        square *= prime ** (exp // 2)
        if exp % 2:
            d *= prime
    return Fraction(square, fr.denominator), sign * d


def make_sqrt(fr: Fraction):
    """A square root of fr: a Fraction when fr is a perfect square, else
    a QuadExt generator coefficient in squarefree normal form."""
    coeff, d = sqrt_normal_form(fr)
    if d == 1:
        return coeff
    return QuadExt(Fraction(0), coeff, d)


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


class QuadExt:
    """u + v*sqrt(d); u and v are Fractions (or nested QuadExt over a
    different d for transient tower arithmetic), d a squarefree integer."""

    __slots__ = ("u", "v", "d")

    def __init__(self, u, v, d: int):
        if v == 0:
            raise ValueError("QuadExt with zero irrational part; use qext()")
        self.u = u
        self.v = v
        self.d = d

    def __repr__(self):
        return f"({self.u} + {self.v}*sqrt({self.d}))"

    def conj(self) -> "QuadExt":
        return QuadExt(self.u, -self.v, self.d)

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
                return Fraction(0)
            return QuadExt(self.u * other, self.v * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def inv(self):
        nr = self.norm()
        if nr == 0:
            raise ZeroDivisionError("zero divisor in quadratic extension")
        return qext(self.u / nr, -self.v / nr, self.d)

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

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        acc = Fraction(1)
        for _ in range(n):
            acc = self * acc
        return acc


def qext(u, v, d: int):
    """Normalizing constructor: collapses a zero irrational part."""
    if v == 0:
        return u
    return QuadExt(u, v, d)


def _ext_d(row: Sequence) -> Optional[int]:
    for x in row:
        if isinstance(x, QuadExt):
            return x.d
    return None


def rows_independent(row1: Sequence, row2: Sequence) -> bool:
    """Exact rank-2 test for two rows of field elements.

    Each row is internally consistent (all its QuadExt entries share one d),
    but the two rows may live in different quadratic extensions; the minors
    are then computed in the biquadratic algebra Q(sqrt(d1), sqrt(d2)) via a
    flat 4-component representation 1, sqrt(d1), sqrt(d2), sqrt(d1*d2).
    """
    d1 = _ext_d(row1)
    d2 = _ext_d(row2)
    if d2 is not None and d1 == d2:
        d2_slot_is_d1 = True
    else:
        d2_slot_is_d1 = False

    def to4(x, first_row: bool):
        if isinstance(x, QuadExt):
            if first_row or d2_slot_is_d1:
                return (x.u, x.v, Fraction(0), Fraction(0))
            return (x.u, Fraction(0), x.v, Fraction(0))
        return (Fraction(x), Fraction(0), Fraction(0), Fraction(0))

    da = d1 if d1 is not None else 1
    db = d2 if d2 is not None else 1

    def mul4(p, q):
        a, b, c, e = p
        a2, b2, c2, e2 = q
        return (
            a * a2 + b * b2 * da + c * c2 * db + e * e2 * da * db,
            a * b2 + b * a2 + (c * e2 + e * c2) * db,
            a * c2 + c * a2 + (b * e2 + e * b2) * da,
            a * e2 + e * a2 + b * c2 + c * b2,
        )

    r1 = [to4(x, True) for x in row1]
    r2 = [to4(x, False) for x in row2]
    n = len(r1)
    for i in range(n):
        for j in range(i + 1, n):
            m1 = mul4(r1[i], r2[j])
            m2 = mul4(r1[j], r2[i])
            if any(m1[k] != m2[k] for k in range(4)):
                return True
    return False
