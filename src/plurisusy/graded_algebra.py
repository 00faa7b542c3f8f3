"""Supercommutative algebra with nilpotent odd generators, exactly.

The coordinates are fixed: (z | theta), named EVEN and ODD.  Elements
live in the Grassmann algebra over a fixed ordered list of odd
generators, theta among them where D is used, with coefficients in Q(z)
held as `RationalFunction`s: reduced pairs of `polyq` polynomials, so
that the zero test is decidable and no float ever enters.  On top of the
element arithmetic this module provides supermatrices with their
Berezinian, graded vector fields in (z | theta) with the super Lie
bracket, and the superconformality test

    D z' = theta' * D theta'      where D = d/dtheta + theta * d/dz,

whose square is the generator of translations: (1/2)[D, D] = d/dz.

A coefficient may be given as an int, a Fraction, a string or a sympy
expression.  sympy is not a dependency: it is imported only to convert
an object whose type comes from sympy, which a caller who passes one has
installed.  A float, any other object, or a sympy expression that is not
in Q(z) raises ValueError.  A coefficient prints natively in the form of
sympy's str of the cancelled p/q, the text earlier versions printed.

`GrassmannAlgebra.parse` reads an element in the grammar of the package's
`reader`, with the name z and the algebra's odd generators.  Products are
taken in the algebra, in the order written, so eta*theta is -theta*eta;
earlier versions read the string as a commutative polynomial and lost
that sign.  A divisor, and the base of a negative power, must be a
nonzero element of Q(z): 1/theta, theta/(1 + eta), z**theta,
(2*z)**(1/2), exp(z) and a*z raise ValueError, where earlier versions
accepted some of them with coefficients outside Q(z).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate, count, repeat
from math import factorial, lcm
from typing import Dict, Mapping, Optional, Sequence, Tuple

from . import polyq
from .polyq import Poly
from .reader import degrees, evaluate
from .records import frozen

Subset = Tuple[int, ...]

EVEN = "z"  # the name of the one even coordinate
ODD = "theta"  # the odd coordinate of D = d/dtheta + theta * d/dz


class RationalFunction:
    """num/den in Q(z), with polyq polynomials num and den, den monic and
    coprime to num; so equal functions have equal fields, and zero is
    (ZERO, ONE)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = polyq.ONE):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if polyq.deg(den) > 0:
            g = polyq.gcd(num, den)
            if polyq.deg(g) > 0:
                num, den = polyq.exact_div(num, g), polyq.exact_div(den, g)
        if den[-1] != 1:
            num, den = polyq.scale(num, Fraction(1) / den[-1]), polyq.monic(den)
        self.num, self.den = num, den

    @classmethod
    def _reduced(cls, num: Poly, den: Poly = polyq.ONE) -> "RationalFunction":
        """From a pair already in the normal form of the class."""
        r = object.__new__(cls)
        r.num, r.den = num, den
        return r

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coeff(other)
        elif not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __neg__(self):
        return RationalFunction._reduced(polyq.neg(self.num), self.den)

    def __add__(self, other):
        other = _coeff(other)
        if self.den == other.den == polyq.ONE:
            return RationalFunction._reduced(polyq.add(self.num, other.num))
        return RationalFunction(
            polyq.add(polyq.mul(self.num, other.den),
                      polyq.mul(other.num, self.den)),
            polyq.mul(self.den, other.den))

    def __mul__(self, other):
        other = _coeff(other)
        if self.den == other.den == polyq.ONE:
            if len(self.num) == len(other.num) == 1:  # constants
                return RationalFunction._reduced(
                    (polyq.rational(self.num[0] * other.num[0]),))
            return RationalFunction._reduced(polyq.mul(self.num, other.num))
        return RationalFunction(polyq.mul(self.num, other.num),
                                polyq.mul(self.den, other.den))

    def inverse(self) -> "RationalFunction":
        if not self.num:
            raise ZeroDivisionError("zero rational function is not invertible")
        return RationalFunction(self.den, self.num)

    def derivative(self) -> "RationalFunction":
        d = polyq.derivative
        if self.den == polyq.ONE:
            return RationalFunction._reduced(d(self.num))
        return RationalFunction(
            polyq.sub(polyq.mul(d(self.num), self.den),
                      polyq.mul(self.num, d(self.den))),
            polyq.mul(self.den, self.den))

    def compose(self, r: "RationalFunction") -> "RationalFunction":
        """This function with z replaced by r."""
        def at(p: Poly) -> RationalFunction:
            acc = _ZERO
            for c in reversed(p):
                acc = acc * r + c
            return acc

        return at(self.num) * at(self.den).inverse()

    def __str__(self):
        """sympy's str of the cancelled p/q, the text earlier versions
        printed: ε·N/Q over integer polynomials N and Q, where num = N/δ
        and δ·den = Q/ε with the least δ and ε."""
        if self.den == polyq.ONE:
            return _sum(self.num)
        delta = lcm(*(c.denominator for c in self.num))
        q = polyq.scale(self.den, delta)
        eps = lcm(*(c.denominator for c in q))
        q = polyq.scale(q, eps)
        num, den = _sum(polyq.scale(self.num, eps * delta)), _sum(q)
        if len(self.num) - self.num.count(0) > 1:
            num = f"({num})"
        if len(q) - q.count(0) > 1 or q[-1] != 1:
            den = f"({den})"
        elif num == "1" and polyq.deg(q) > 1:  # sympy's power z**(-k)
            return f"{EVEN}**(-{polyq.deg(q)})"
        return f"{num}/{den}"

    __repr__ = __str__


def _sum(p: Poly) -> str:
    """p as sympy prints it: terms n*z**k/d in descending degree, except
    that -a*z**k + c with a, c > 0 prints as c - a*z**k."""
    terms = [(c, k) for k, c in reversed(list(enumerate(p))) if c]
    if (len(terms) == 2 and terms[0][0] < 0 and terms[1][1] == 0
            and terms[1][0] > 0):
        terms.reverse()
    out = ""
    for c, k in terms:
        n, d = abs(c.numerator), c.denominator
        t = str(n) if k == 0 else EVEN if k == 1 else f"{EVEN}**{k}"
        if k and n != 1:
            t = f"{n}*{t}"
        if d != 1:
            t = f"{t}/{d}"
        if not out:
            out = f"-{t}" if c < 0 else t
        else:
            out += f" - {t}" if c < 0 else f" + {t}"
    return out or "0"


_ZERO = RationalFunction._reduced(polyq.ZERO)
_ONE = RationalFunction._reduced(polyq.ONE)


def _coeff(c) -> RationalFunction:
    """c as an element of Q(z); see the module docstring for what c may be."""
    if isinstance(c, RationalFunction):
        return c
    if isinstance(c, (int, Fraction)):
        return RationalFunction._reduced(polyq.poly((c,)))
    if isinstance(c, str):
        return GrassmannAlgebra(()).parse(c).body()
    if isinstance(c, float):
        raise ValueError(f"coefficient {c!r} is a float, not an exact "
                         f"rational")
    if type(c).__module__.partition(".")[0] != "sympy":
        raise ValueError(f"coefficient {c!r} is not in Q({EVEN})")
    return _from_sympy(c)


def _from_sympy(e) -> RationalFunction:
    """A caller's sympy expression in Q(z); only here is sympy imported."""
    import sympy as sp

    if not isinstance(e, sp.Expr):
        raise ValueError(f"coefficient {e!r} is not in Q({EVEN})")
    if e.is_Rational:
        return _coeff(Fraction(int(e.p), int(e.q)))
    zs = e.free_symbols
    if any(s.name != EVEN for s in zs):
        raise ValueError(f"coefficient {e} is not in Q({EVEN})")
    polys = []
    for part in sp.fraction(sp.cancel(sp.together(e))):
        if zs and not part.is_polynomial(*zs):
            raise ValueError(f"coefficient {e} is not in Q({EVEN})")
        cs = sp.Poly(part, *zs).all_coeffs() if zs else [part]
        if not all(c.is_Rational for c in cs):
            raise ValueError(f"coefficient {e} is not in Q({EVEN})")
        polys.append(polyq.poly(Fraction(int(c.p), int(c.q))
                                for c in reversed(cs)))
    return RationalFunction(*polys)


def _even_name(z) -> str:
    """The even coordinate, given by its name or a sympy symbol: it is z."""
    if str(z) != EVEN:
        raise ValueError(f"the even coordinate is {EVEN}, got {z!r}")
    return EVEN


def _gen_index(gens: Tuple[str, ...], name: str) -> int:
    """Position of the odd generator `name` among gens."""
    if name not in gens:
        raise ValueError(f"{name!r} is not an odd generator of the algebra "
                         f"on {gens}")
    return gens.index(name)


def _merge_sign(s: Subset, t: Subset) -> int:
    """Koszul sign for theta_s * theta_t with s, t disjoint sorted tuples:
    (-1)^(number of out-of-order generator pairs)."""
    inv = 0
    for a in s:
        for b in t:
            if a > b:
                inv += 1
    return -1 if inv % 2 else 1


class GrassmannElement:
    """A finite sum  sum_S c_S(z) * theta_S  over sorted subsets S of the
    odd generators.  Immutable in use; terms maps sorted index tuples to
    nonzero RationalFunction coefficients."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: Sequence[str], terms: Mapping[Subset, object]):
        self.gens = tuple(gens)
        clean: Dict[Subset, RationalFunction] = {}
        for key, c in terms.items():
            key = tuple(key)
            if list(key) != sorted(set(key)):
                raise ValueError(f"term key {key} not a sorted subset")
            if not all(0 <= i < len(self.gens) for i in key):
                raise ValueError(f"term key {key} names an unknown generator")
            c = _coeff(c)
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _of(cls, gens: Tuple[str, ...],
            terms: Mapping[Subset, RationalFunction]) -> "GrassmannElement":
        """From sorted keys and RationalFunction values, dropping zeros."""
        e = object.__new__(cls)
        e.gens = gens
        e.terms = {k: c for k, c in terms.items() if c}
        return e

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(gens: Sequence[str], c) -> "GrassmannElement":
        return GrassmannElement._of(tuple(gens), {(): _coeff(c)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> RationalFunction:
        """Image under the projection that kills every odd generator."""
        return self.terms.get((), _ZERO)

    def soul(self) -> "GrassmannElement":
        return GrassmannElement._of(
            self.gens, {k: c for k, c in self.terms.items() if k})

    def has_parity(self, p: int) -> bool:
        return all(len(k) % 2 == p for k in self.terms)

    def parity(self) -> Optional[int]:
        """0 or 1 for homogeneous elements, None for mixed or zero."""
        if not self.terms:
            return None
        ps = {len(k) % 2 for k in self.terms}
        return ps.pop() if len(ps) == 1 else None

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "GrassmannElement"):
        if self.gens != other.gens:
            raise ValueError("elements from algebras with different odd generators")

    def _scaled(self, c) -> "GrassmannElement":
        c = _coeff(c)
        return GrassmannElement._of(
            self.gens, {k: v * c for k, v in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(self.gens, other)
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return GrassmannElement._of(self.gens, terms)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement._of(
            self.gens, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(self.gens, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            return self._scaled(other)
        self._check(other)
        terms: Dict[Subset, RationalFunction] = {}
        for s, cs in self.terms.items():
            for t, ct in other.terms.items():
                if set(s) & set(t):
                    continue  # nilpotency
                key = tuple(sorted(s + t))
                add = cs * ct
                if _merge_sign(s, t) < 0:
                    add = -add
                terms[key] = terms[key] + add if key in terms else add
        return GrassmannElement._of(self.gens, terms)

    def __rmul__(self, other):
        # only scalars reach here; they commute with everything
        return self._scaled(other)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = GrassmannElement.scalar(self.gens, 1)
        base = self
        while n:  # by squaring, so z**n costs O(log n) products
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            try:
                other = GrassmannElement.scalar(self.gens, other)
            except ValueError:  # not in Q(z): never equal
                return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("GrassmannElement is not hashable")

    def inverse(self) -> "GrassmannElement":
        """Multiplicative inverse; exists iff the body is a nonzero rational
        function, via a finite geometric series in the nilpotent part."""
        b = self.body()
        if not b:
            raise ZeroDivisionError("element with zero body is not invertible")
        binv = b.inverse()  # 1/(b + n) = sum_k (-1)^k b^-(k+1) n^k
        coeffs = accumulate(repeat(-binv), operator.mul, initial=binv)
        return self.soul()._power_series(coeffs)

    def _power_series(self, coeffs) -> "GrassmannElement":
        """sum_k c_k * self^k for a nilpotent self, drawing the
        RationalFunctions c_0, c_1, ... from coeffs while self^k != 0."""
        result = GrassmannElement._of(self.gens, {})
        power = GrassmannElement.scalar(self.gens, 1)
        for c in coeffs:
            result = result + power * c
            power = power * self
            if power.is_zero():
                return result

    def __truediv__(self, other):
        if isinstance(other, GrassmannElement):
            return self * other.inverse()
        return self * _coeff(other).inverse()

    # -- calculus ----------------------------------------------------------

    def d_even(self) -> "GrassmannElement":
        """Coefficientwise d/dz."""
        return GrassmannElement._of(
            self.gens, {k: c.derivative() for k, c in self.terms.items()})

    def d_odd(self, name: str) -> "GrassmannElement":
        """Left derivative with respect to an odd generator."""
        idx = _gen_index(self.gens, name)
        terms: Dict[Subset, RationalFunction] = {}
        for k, c in self.terms.items():
            if idx not in k:
                continue
            pos = k.index(idx)
            key = tuple(x for x in k if x != idx)
            terms[key] = -c if pos % 2 else c  # keys stay distinct
        return GrassmannElement._of(self.gens, terms)

    def substitute(
        self,
        even_subs: Optional[Mapping[object, "GrassmannElement"]] = None,
        odd_subs: Optional[Mapping[str, "GrassmannElement"]] = None,
    ) -> "GrassmannElement":
        """Substitute elements for coordinates: an even element or a
        rational scalar for z (Taylor expansion in its nilpotent part) and
        odd elements for odd generators; anything else is a ValueError."""
        z = {_even_name(k): v for k, v in (even_subs or {}).items()}.get(EVEN)
        if isinstance(z, (int, Fraction)):
            z = self.scalar(self.gens, z)
        if z is not None and not (isinstance(z, GrassmannElement)
                                  and z.has_parity(0)):
            raise ValueError(f"{EVEN} must receive an even element or a "
                             f"rational scalar, got {z!r}")
        odd = [GrassmannElement._of(self.gens, {(i,): _ONE})
               for i in range(len(self.gens))]
        for name, o in (odd_subs or {}).items():
            i = _gen_index(self.gens, name)
            if not (isinstance(o, GrassmannElement) and o.has_parity(1)):
                raise ValueError(f"odd generator {name!r} must receive an "
                                 f"odd element, got {o!r}")
            odd[i] = o
        result = GrassmannElement._of(self.gens, {})
        for k, c in self.terms.items():
            piece = (GrassmannElement.scalar(self.gens, c) if z is None
                     else z.soul()._power_series(_taylor(c, z.body())))
            for idx in k:
                piece = piece * odd[idx]
            result = result + piece
        return result

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, key=lambda s: (len(s), s)):
            mono = "*".join(self.gens[i] for i in k)
            c = self.terms[k]
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _taylor(c: RationalFunction, at: RationalFunction):
    """c^(k)(at) / k! for k = 0, 1, ...: the Taylor coefficients of c."""
    for k in count():
        yield c.compose(at) * Fraction(1, factorial(k))
        c = c.derivative()


class _Reader:
    """One Grassmann algebra as the ring of `reader.evaluate`, which
    checks its rules: its elements' coefficients are in Q(z), and their
    grade is their degree in the odd generators, unbounded."""

    var, gens, max_grade = EVEN, "the odd generators", None
    neg, add, mul, pow = map(staticmethod, (operator.neg, operator.add,
                                            operator.mul, operator.pow))
    inverse = staticmethod(GrassmannElement.inverse)

    def __init__(self, alg: "GrassmannAlgebra"):
        self.alg = alg

    def const(self, c: Fraction) -> GrassmannElement:
        return self.alg.scalar(c)

    @staticmethod
    def pairs(a: GrassmannElement):
        return [(c.num, c.den) for c in a.terms.values()]

    @staticmethod
    def grade(a: GrassmannElement) -> int:
        return max(map(len, a.terms), default=-1)


class GrassmannAlgebra:
    """Convenience factory around a fixed ordered tuple of odd generators."""

    def __init__(self, gens: Sequence[str]):
        gens = tuple(gens)
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate odd generator names")
        if EVEN in gens:
            raise ValueError(f"{EVEN} is the even coordinate")
        self.gens = gens

    def zero(self) -> GrassmannElement:
        return GrassmannElement(self.gens, {})

    def one(self) -> GrassmannElement:
        return GrassmannElement.scalar(self.gens, 1)

    def scalar(self, c) -> GrassmannElement:
        return GrassmannElement.scalar(self.gens, c)

    def gen(self, name: str) -> GrassmannElement:
        return GrassmannElement._of(self.gens,
                                    {(_gen_index(self.gens, name),): _ONE})

    def element(self, terms: Mapping[Subset, object]) -> GrassmannElement:
        return GrassmannElement(self.gens, terms)

    def parse(self, text: str) -> GrassmannElement:
        """The element text names, in the grammar of the module docstring;
        anything else raises ValueError."""
        if not isinstance(text, str):
            raise ValueError(f"expression string expected, got {text!r}")
        names = {g: self.gen(g) for g in self.gens}
        names[EVEN] = self.scalar(RationalFunction._reduced(polyq.X))
        try:
            return evaluate(text, names, _Reader(self))
        except ValueError as exc:
            raise ValueError(f"expression {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# supermatrices and the Berezinian
# ---------------------------------------------------------------------------


def _det_even(entries) -> GrassmannElement:
    """Determinant of a square matrix of even (hence commuting) elements."""
    n = len(entries)
    if n == 0:
        raise ValueError("empty determinant has no algebra to live in")
    if n == 1:
        return entries[0][0]
    gens = entries[0][0].gens
    det = GrassmannElement(gens, {})
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = entries[0][j] * _det_even(minor)
        det = det + (term if j % 2 == 0 else -term)
    return det


def _inv_even(entries) -> list:
    """Inverse of a square matrix of even elements via the adjugate."""
    n = len(entries)
    det = _det_even(entries)
    det_inv = det.inverse()
    if n == 1:
        return [[det_inv]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [entries[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = _det_even(minor)
            adj[j][i] = (cof if (i + j) % 2 == 0 else -cof) * det_inv
    return adj


class SuperMatrix:
    """Block supermatrix [[A, B], [C, D]] with A: p x p and D: q x q even,
    B and C odd.  Entries are GrassmannElements over one algebra."""

    def __init__(self, p: int, q: int, rows):
        self.p = p
        self.q = q
        self.rows = tuple(tuple(r) for r in rows)
        n = p + q
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("supermatrix shape mismatch")
        self.gens = self.rows[0][0].gens if n else ()
        for i in range(n):
            for j in range(n):
                e = self.rows[i][j]
                if e.gens != self.gens:
                    raise ValueError("entries from different algebras")
                want = 0 if (i < p) == (j < p) else 1
                if not e.has_parity(want):
                    raise ValueError(
                        f"entry ({i},{j}) must have parity {want}: {e!r}"
                    )

    @staticmethod
    def from_blocks(A, B, C, D) -> "SuperMatrix":
        p = len(A)
        q = len(D)
        rows = []
        for i in range(p):
            rows.append(list(A[i]) + list(B[i] if q else []))
        for i in range(q):
            rows.append(list(C[i] if p else []) + list(D[i]))
        return SuperMatrix(p, q, rows)

    def block(self, which: str):
        p, q = self.p, self.q
        if which == "A":
            return [list(self.rows[i][:p]) for i in range(p)]
        if which == "B":
            return [list(self.rows[i][p:]) for i in range(p)]
        if which == "C":
            return [list(self.rows[p + i][:p]) for i in range(q)]
        if which == "D":
            return [list(self.rows[p + i][p:]) for i in range(q)]
        raise KeyError(which)

    def __mul__(self, other: "SuperMatrix") -> "SuperMatrix":
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("supermatrix size mismatch")
        return SuperMatrix(self.p, self.q,
                           _matmul(self.gens, self.rows, other.rows))

    def berezinian(self) -> GrassmannElement:
        """Ber = det(A - B D^-1 C) * det(D)^-1; defined iff det(D) has an
        invertible body.  Multiplicative on products."""
        if self.q == 0:
            return _det_even(self.block("A"))
        D = self.block("D")
        det_D = _det_even(D)
        if not det_D.body():
            raise ZeroDivisionError("Berezinian undefined: det(D) has zero body")
        if self.p == 0:
            return det_D.inverse()
        A, B, C = self.block("A"), self.block("B"), self.block("C")
        BDC = _matmul(self.gens, _matmul(self.gens, B, _inv_even(D)), C)
        S = [[a - bdc for a, bdc in zip(*rows)] for rows in zip(A, BDC)]
        return _det_even(S) * det_D.inverse()


def _matmul(gens: Tuple[str, ...], X, Y) -> list:
    """The product of the matrices X and Y, lists of rows of elements
    over gens."""
    return [[sum((x * Y[k][j] for k, x in enumerate(row)),
                 GrassmannElement(gens, {})) for j in range(len(Y[0]))]
            for row in X]


# ---------------------------------------------------------------------------
# graded vector fields in coordinates (z | theta)
# ---------------------------------------------------------------------------


class VectorFieldSC:
    """Vector field a(z,theta) d/dz + b(z,theta) d/dtheta with graded
    coefficients; supports application to elements and the super bracket."""

    def __init__(self, a: GrassmannElement, b: GrassmannElement):
        if a.gens != b.gens:
            raise ValueError("coefficients from different algebras")
        self.a = a
        self.b = b

    def parity(self) -> Optional[int]:
        """Parity of the field: d/dz is even and d/dtheta odd, so an
        homogeneous field has a with parity p and b with parity 1-p."""
        for p in (0, 1):
            if self.a.has_parity(p) and self.b.has_parity(1 - p):
                return p
        return None

    def apply(self, e: GrassmannElement) -> GrassmannElement:
        return self.a * e.d_even() + self.b * e.d_odd(ODD)

    def scale(self, c) -> "VectorFieldSC":
        return VectorFieldSC(self.a * c, self.b * c)

    def bracket(self, other: "VectorFieldSC") -> "VectorFieldSC":
        """Super Lie bracket [X, Y] = X Y - (-1)^{|X||Y|} Y X, computed by
        applying both compositions to the coordinate functions."""
        px, py = self.parity(), other.parity()
        if px is None or py is None:
            raise ValueError("bracket requires homogeneous vector fields")
        sign = -1 if (px * py) % 2 else 1
        new_a = self.apply(other.a) - sign * other.apply(self.a)
        new_b = self.apply(other.b) - sign * other.apply(self.b)
        return VectorFieldSC(new_a, new_b)

    def __eq__(self, other):
        return (isinstance(other, VectorFieldSC)
                and self.a == other.a and self.b == other.b)

    def __repr__(self):
        return f"({self.a!r}) d/d{EVEN} + ({self.b!r}) d/d{ODD}"


def superconformal_derivation(algebra: GrassmannAlgebra) -> VectorFieldSC:
    """D = d/dtheta + theta d/dz, the odd derivation whose square generates
    d/dz."""
    return VectorFieldSC(algebra.gen(ODD), algebra.one())


def susy_generator_square(X: VectorFieldSC) -> VectorFieldSC:
    """(1/2)[X, X]; for X = D this is exactly d/dz."""
    return X.bracket(X).scale(Fraction(1, 2))


# Each term of the residual D z' - theta' D theta' holds z' once and
# theta' twice, and its arithmetic in Q(z) grows faster than the degrees
# it reaches.  So check_superconformal bounds deg z' + 2 deg theta', with
# deg the numerator plus the denominator degree of reader.degrees: the
# slowest check measured at the bound takes 1.3 s (see the README).
MAX_CHECK_DEGREE = 150


class SuperconformalReport(frozen("SuperconformalReport",
                                  "ok residual jacobian_body_invertible")):
    __slots__ = ()

    def __str__(self):
        if self.ok:
            return "superconformal: yes"
        return f"superconformal: no\nresidual: {self.residual!r}"

    def to_json(self) -> Dict:
        return {
            "superconformal": self.ok,
            "residual": repr(self.residual),
            "jacobian_body_invertible": self.jacobian_body_invertible,
        }


def check_superconformal(zp: GrassmannElement,
                         tp: GrassmannElement) -> SuperconformalReport:
    """Decide whether (z', theta') = (zp, tp) satisfies D z' = theta' D theta'.

    zp must be even and tp odd, and deg zp + 2 deg tp at most
    MAX_CHECK_DEGREE, or ValueError; the report carries the exact residual
    D z' - theta' D theta' and whether the body of dz'/dz is invertible
    (the change is a coordinate change to first order)."""
    if not zp.has_parity(0):
        raise ValueError("z' must be an even element")
    if not tp.has_parity(1):
        raise ValueError("theta' must be an odd element")
    size = (sum(degrees(_Reader.pairs(zp)))
            + 2 * sum(degrees(_Reader.pairs(tp))))
    if size > MAX_CHECK_DEGREE:
        raise ValueError(f"check-superconformal stops at deg z' + "
                         f"2 deg theta' = {MAX_CHECK_DEGREE} (degrees in "
                         f"{EVEN}, numerator plus denominator); got {size}")
    D = superconformal_derivation(GrassmannAlgebra(zp.gens))
    residual = D.apply(zp) - tp * D.apply(tp)
    jac_ok = bool(zp.d_even().body())
    return SuperconformalReport(residual.is_zero(), residual, jac_ok)
