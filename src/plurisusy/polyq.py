"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is an immutable tuple of Fraction coefficients in ascending
order of degree with no trailing zeros; the zero polynomial is the empty
tuple.  Everything here is exact: no floating point is ever introduced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

Poly = Tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
X: Poly = (Fraction(0), Fraction(1))


def poly(coeffs: Iterable) -> Poly:
    """Build a polynomial from ascending coefficients, trimming zeros."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def deg(p: Poly) -> int:
    """Degree of p, with deg(0) = -1 by convention."""
    return len(p) - 1


def lead(p: Poly) -> Fraction:
    if not p:
        raise ValueError("zero polynomial has no leading coefficient")
    return p[-1]


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    cs = list(p)
    for i, c in enumerate(q):
        cs[i] += c
    return poly(cs)


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    cs = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            cs[i + j] += a * b
    return poly(cs)


def pow_(p: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative polynomial power")
    r = ONE
    for _ in range(n):
        r = mul(r, p)
    return r


def divmod_(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    """Euclidean division: p = quot*q + rem with deg rem < deg q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = deg(q)
    lc = q[-1]
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + dq] / lc
        if c == 0:
            continue
        quot[k] = c
        for j, b in enumerate(q):
            rem[k + j] -= c * b
    return poly(quot), poly(rem)


def exact_div(p: Poly, q: Poly) -> Poly:
    quot, rem = divmod_(p, q)
    if rem:
        raise ValueError("polynomial division is not exact")
    return quot


def monic(p: Poly) -> Poly:
    if not p:
        return ZERO
    return scale(p, 1 / p[-1])


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor."""
    a, b = p, q
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic(a)


def lcm(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    return monic(exact_div(mul(p, q), gcd(p, q)))


def derivative(p: Poly) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i > 0)


def eval_at(p: Poly, x0):
    """Horner evaluation.  x0 may be a Fraction or any field element that
    supports + and * with Fraction on either side."""
    acc = None
    for c in reversed(p):
        acc = c if acc is None else acc * x0 + c
    if acc is None:
        return Fraction(0)
    return acc


def shift(p: Poly, x0) -> Poly:
    """Taylor shift: coefficients of p(x0 + t) as a polynomial in t."""
    x0 = Fraction(x0)
    cs = list(p)
    n = len(cs)
    # repeated synthetic division by (t - 0) after substituting x = x0 + t
    for i in range(n):
        for k in range(n - 2, i - 1, -1):
            cs[k] += x0 * cs[k + 1]
    return poly(cs)


def mult_at(p: Poly, x0) -> int:
    """Multiplicity of the root x0 in p (0 if not a root); p must be nonzero."""
    if not p:
        raise ValueError("zero polynomial has roots everywhere")
    x0 = Fraction(x0)
    m = 0
    cur = p
    while eval_at(cur, x0) == 0:
        cur = exact_div(cur, (-x0, Fraction(1)))
        m += 1
    return m


def from_roots(roots: Sequence) -> Poly:
    """Monic product of the factors (x - r)."""
    cs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        cs.insert(0, Fraction(0))  # times x; the loop subtracts r times cs
        for i in range(len(cs) - 1):
            cs[i] -= r * cs[i + 1]
    return tuple(cs)


def is_squarefree(p: Poly) -> bool:
    return deg(gcd(p, derivative(p))) <= 0


def format_poly(p: Poly, var: str = "x") -> str:
    """Human-readable ascending-degree-last formatting like 'x^2 - 1/2*x + 3'."""
    if not p:
        return "0"
    parts: List[str] = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            xi = var if i == 1 else f"{var}^{i}"
            term = xi if abs(c) == 1 else f"{abs(c)}*{xi}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def rational_roots(p: Poly) -> Tuple[List[Tuple[Fraction, int]], Poly]:
    """All rational roots of p with multiplicities, plus the root-free cofactor.

    Backed by sympy's exact factorization over Q, which is the one genuinely
    hard primitive in this module.
    """
    import sympy

    if not p:
        raise ValueError("zero polynomial")
    x = sympy.Symbol("x")
    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x)
    _, factors = expr.factor_list()
    roots: List[Tuple[Fraction, int]] = []
    cofactor = ONE
    for fac, mult in factors:
        cs = fac.all_coeffs()  # descending
        if len(cs) == 2:
            rt = sympy.Rational(-cs[1], cs[0])
            roots.append((Fraction(int(rt.p), int(rt.q)), mult))
        else:
            q = poly(
                Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
                for c in reversed(cs)
            )
            cofactor = mul(cofactor, pow_(q, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, cofactor
