"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is an immutable tuple of coefficients in ascending order of
degree with no trailing zeros; the zero polynomial is the empty tuple.
Every exact scalar of the package follows one rule, `rational`: an int
when it is integral and a Fraction otherwise.  It covers coefficients
here, the roots of `rational_roots`, point coordinates and square roots,
so integral data computes in int arithmetic; equality, hashing and str do
not tell 3 from Fraction(3).  Everything here is exact: `poly` raises
TypeError on a float rather than convert it, and every division has a
Fraction operand, as int / int would be a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as gcd_int, isqrt, lcm as lcm_int
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

Poly = Tuple[Union[int, Fraction], ...]

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)


def rational(c) -> Union[int, Fraction]:
    """c as an int when it is integral and as a Fraction otherwise; a
    float raises TypeError, since Fraction(0.1) is not 1/10."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"float coefficient {c!r}: pass an int, a "
                            f"Fraction or a string such as '1/10'")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def poly(coeffs: Iterable) -> Poly:
    """Build a polynomial from ascending coefficients, trimming zeros."""
    cs = [rational(c) for c in coeffs]
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
    c = rational(c)
    if c == 0:
        return ZERO
    return tuple(rational(a * c) for a in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    cs = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            cs[i + j] += a * b
    return poly(cs)


def divmod_(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    """Euclidean division: p = quot*q + rem with deg rem < deg q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [0] * max(0, len(p) - len(q) + 1)
    dq = deg(q)
    lc = q[-1]
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + dq] if lc == 1 else rational(Fraction(rem[k + dq]) / lc)
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
    return scale(p, Fraction(1) / p[-1])


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor, by the primitive pseudo-remainder
    sequence of the integer primitive parts."""
    if not p or not q:
        return monic(p or q)
    return monic(poly(_int_gcd(_primitive_ints(p), _primitive_ints(q))))


def derivative(p: Poly) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i > 0)


def eval_at(p: Poly, x0):
    """Horner evaluation.  x0 may be a Fraction or any field element that
    supports + and * with Fraction on either side."""
    acc = None
    for c in reversed(p):
        acc = c if acc is None else acc * x0 + c
    if acc is None:
        return 0
    return acc


def taylor(p: Poly, x0, n: int) -> Poly:
    """The first n coefficients of p(x0 + t), as a polynomial in t.

    Integer arithmetic throughout (von zur Gathen and Gerhard, ISSAC
    1997): with x0 = a/b, N = deg p and L the lcm of p's denominators,
    b^N L p(x0 + s/b) = R(a + s) for the integer polynomial
    R = sum L c_k b^(N-k) X^k.  Synthetic division of R by X - a, once
    per coefficient, leaves r_k, the coefficient of s^k in R(a + s), and
    the coefficient of t^k in p(x0 + t) is r_k / (L b^(N-k)).
    """
    if not p:
        return ZERO
    a, b = x0.numerator, x0.denominator  # x0 is a Fraction or an int
    N = len(p) - 1
    L = lcm_int(*[c.denominator for c in p])
    cs = [c.numerator * (L // c.denominator) * b ** (N - k)
          for k, c in enumerate(p)]
    n = min(n, N + 1)
    if a:  # at a = 0, R(a + s) is R(s) already
        for i in range(n):
            for k in range(N - 1, i - 1, -1):
                cs[k] += a * cs[k + 1]
    out = [rational(Fraction(cs[k], L * b ** (N - k))) for k in range(n)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def shift(p: Poly, x0) -> Poly:
    """Taylor shift: coefficients of p(x0 + t) as a polynomial in t."""
    return taylor(p, x0, len(p))


def sqrt_window(F: Sequence, root0, n: int) -> List:
    """The first n coefficients of the square root of the power series
    F(t) that starts with root0, where root0^2 = F[0] != 0, by the Hensel
    lift c_0 = root0, c_k = (F_k - sum_{0<i<k} c_i c_(k-i)) / (2 c_0).
    The coefficients may be Fractions or elements of one Q(sqrt d); F
    may stop early, its missing coefficients being 0."""
    inv2r = Fraction(1) / (root0 + root0)
    out = [root0]
    for k in range(1, n):
        acc = F[k] if k < len(F) else 0
        for i in range(1, k):
            acc = acc - out[i] * out[k - i]
        out.append(inv2r * acc)
    return out[:n]


def deflate(p: Poly, x0, most: Optional[int] = None) -> Tuple[int, Poly]:
    """(m, p / (x - x0)^m), with m the multiplicity of the root x0 in p,
    or `most` when that is smaller; the zero p gives (most, 0).  Each
    factor costs one pass of synthetic division, which gives the quotient
    and, last, the remainder p(x0); the first nonzero remainder ends the
    loop."""
    if not p:
        if most is None:
            raise ValueError("zero polynomial has roots everywhere")
        return most, p
    m = 0
    while most is None or m < most:
        acc = 0
        quot = [acc] * (len(p) - 1)
        for i in range(len(p) - 1, 0, -1):
            acc = acc * x0 + p[i]
            quot[i - 1] = acc
        if acc * x0 + p[0]:
            break
        p, m = tuple(map(rational, quot)), m + 1
    return m, p


def mult_at(p: Poly, x0) -> int:
    """Multiplicity of the root x0 in p (0 if not a root); p must be nonzero."""
    return deflate(p, x0)[0]


def from_roots(roots: Sequence) -> Poly:
    """Monic product of the factors (x - r)."""
    cs = [1]
    for r in roots:
        cs.insert(0, 0)  # times x; the loop subtracts r times cs
        for i in range(len(cs) - 1):
            cs[i] -= r * cs[i + 1]
    return tuple(map(rational, cs))


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


# Integer polynomials below are lists of ints in ascending order of degree,
# with no trailing zeros.

def _primitive_ints(p) -> List[int]:
    """The primitive part of a nonzero polynomial with rational (or
    integer) coefficients, as integers with a positive leading one."""
    den = lcm_int(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = gcd_int(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def clear_denominators(*polys: Sequence[Fraction]
                       ) -> Tuple[Fraction, List[List[int]]]:
    """The positive rational lam that makes the coefficients of polys, all
    together, coprime integers, and lam times each of polys."""
    scale = lcm_int(*(c.denominator for p in polys for c in p))
    ints = [[c.numerator * (scale // c.denominator) for c in p] for p in polys]
    common = gcd_int(*(c for p in ints for c in p)) or 1
    return Fraction(scale, common), [[c // common for c in p] for p in ints]


def int_derivative(a: List[int]) -> List[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _int_div(a: List[int], d: List[int]) -> Optional[List[int]]:
    """a / d when the quotient has integer coefficients, else None."""
    r = list(a)
    n = len(d) - 1
    q = [0] * max(0, len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + n], d[-1])
        if rem:
            return None
        q[k] = c
        for i, y in enumerate(d):
            r[k + i] -= c * y
    return None if any(r) else q


def _int_gcd(a: List[int], b: List[int]) -> List[int]:
    """Primitive greatest common divisor of integer polynomials, by the
    primitive pseudo-remainder sequence; a must be nonzero."""
    while b:
        r = list(a)
        while len(r) >= len(b):  # r = lc(b) r - lead(r) x^k b
            c = r.pop()
            r = [x * b[-1] for x in r]
            for i, y in enumerate(b[:-1]):
                r[len(r) - len(b) + 1 + i] -= c * y
            while r and r[-1] == 0:
                r.pop()
        a, b = b, (_primitive_ints(r) if r else [])
    return _primitive_ints(a)


def _primes() -> Iterator[int]:
    yield from (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    n = 49
    while True:
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n
        n += 2


def _integer_roots(b: List[int]) -> List[int]:
    """The integer roots of a monic squarefree integer polynomial b.

    Modulo the first prime p at which every root of b is simple, each
    integer root reduces to one of those roots, and each of them lifts
    uniquely to p^k (Hensel).  An integer root z is bounded by Cauchy's
    1 + max|b_i| and by Fujiwara's 2 max|b_i|^(1/(n-i)) (Tohoku Math. J.
    10, 1916; here each term is rounded up to a power of 2), so once p^k
    exceeds twice the smaller bound z is the symmetric lift.
    """
    db = int_derivative(b)
    for prime in _primes():
        bp, found = [c % prime for c in b], []
        for z in filter(lambda z: eval_at(bp, z) % prime == 0, range(prime)):
            if eval_at(db, z) % prime == 0:
                break  # a multiple root: try the next prime
            found.append(z)
        else:
            break
    bound = 2 * min(1 + max(map(abs, b[:-1]), default=0),
                    2 << max((-(-abs(c).bit_length() // (len(b) - 1 - i))
                              for i, c in enumerate(b[:-1])), default=0))
    roots = []
    for z in found:
        m = prime
        while m <= bound:
            m *= m
            z = (z - eval_at(b, z) * pow(eval_at(db, z), -1, m)) % m
        if z > m // 2:
            z -= m
        if eval_at(b, z) == 0:
            roots.append(z)
    return roots


def rational_roots(p: Poly, *, squarefree: bool = False
                   ) -> Tuple[List[Tuple[Union[int, Fraction], int]], Poly]:
    """All rational roots of p, each as `rational` gives it, with
    multiplicities, in increasing order, plus the cofactor: the primitive
    part, with a positive leading coefficient, of p with its rational
    linear factors divided out (ONE when nothing of positive degree is
    left).

    The roots are those of the squarefree part of p, written as a
    primitive integer polynomial s of degree n.  Each is z / s_n for an
    integer root z of the monic b(z) = s_n^(n-1) s(z / s_n).  When
    gcd(p, p') is constant every root is simple, so each linear factor
    is divided out once, and none when there are n roots.

    squarefree=True vouches that gcd(p, p') is constant, and the gcd is
    not computed.  Only a caller that has proved it may pass it: with a
    repeated root, b would not be squarefree and _integer_roots would
    never find a prime to work modulo.
    """
    if not p:
        raise ValueError("zero polynomial")
    rest = _primitive_ints(p)
    d = [1] if squarefree else _int_gcd(rest, int_derivative(rest))
    s = rest if len(d) == 1 else _int_div(rest, d)
    n, lc = len(s) - 1, s[-1]
    b = [c * lc ** (n - 1 - i) for i, c in enumerate(s[:-1])] + [1]
    roots = [(rational(Fraction(z, lc)), 1)
             for z in sorted(_integer_roots(b))]
    if len(d) == 1 and len(roots) == n:
        return roots, ONE
    for i, (r, _) in enumerate(roots):
        m, linear = 0, [-r.numerator, r.denominator]
        while ((m == 0 or len(d) > 1)
               and (q := _int_div(rest, linear)) is not None):
            rest, m = q, m + 1
        roots[i] = (r, m)
    return roots, (poly(rest) if len(rest) > 1 else ONE)
