"""Hyperelliptic curves y^2 = f(x) with exact function-field arithmetic.

f is squarefree of odd degree 2g+1 >= 5, so there is a single point at
infinity and the genus is g >= 2.  Functions are represented as
(A(x) + B(x) y) / den(x) with rational polynomial coefficients.  The module
computes valuations at rational points (including infinity and branch
points), exact Laurent expansions in canonical local parameters, and full
divisors of functions whose support is defined over Q or a quadratic
extension in the y-coordinate.

Local parameters: t = x - x0 at a finite point off the branch locus,
t = y at a finite branch point (so x - r = t^2 * unit), and at infinity
the parameter with x = t^-2 and y = t^-(2g+1) * (unit); consequently
x has a double pole and y a pole of order 2g+1 at infinity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from . import polyq
from .polyq import Poly
from .fieldext import QuadExt, make_sqrt

if TYPE_CHECKING:  # imported by the routines that build a series
    from .series import TSeries

Scalar = Union[int, Fraction, QuadExt]


class UnrepresentableSupportError(ValueError):
    """Raised when a divisor computation meets support that does not live
    over Q with at worst a quadratic extension in y."""


def _rational(v) -> Union[int, Fraction]:
    """polyq.rational(v) of an int or a Fraction; TypeError otherwise."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"expected a rational number, got {v!r}")
    return polyq.rational(v)


class HyperellipticCurve:
    """y^2 = f(x) with f squarefree of odd degree 2g+1 >= 5."""

    def __init__(self, f):
        f = polyq.poly(f)
        d = polyq.deg(f)
        if d < 5 or d % 2 == 0:
            raise ValueError("f must have odd degree at least 5")
        if not polyq.is_squarefree(f):
            raise ValueError("f must be squarefree")
        self.f = f
        self.genus = (d - 1) // 2
        self._roots: Optional[Tuple[list, Poly]] = None  # see _f_roots
        self._branch: Optional[Dict[Union[int, Fraction], CurvePoint]] = None
        # points are never mutated, so every caller shares this one
        self._infinity = CurvePoint(self, None, None, at_infinity=True)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, HyperellipticCurve) and self.f == other.f

    def __hash__(self):
        return hash(self.f)

    def __repr__(self):
        return f"HyperellipticCurve(y^2 = {polyq.format_poly(self.f)})"

    # -- points ------------------------------------------------------------

    def infinity(self) -> "CurvePoint":
        return self._infinity

    def point(self, x, y=None, sign: int = 1) -> "CurvePoint":
        """Finite point with rational x.  If y is omitted it is taken to be
        sign * sqrt(f(x)), possibly in a quadratic extension."""
        x = _rational(x)
        fx = polyq.eval_at(self.f, x)
        if y is None:
            y = make_sqrt(fx)
            if sign == -1:
                y = -y
        else:
            if not isinstance(y, QuadExt):
                y = _rational(y)
            if y * y != fx:
                raise ValueError(f"({x}, {y}) does not lie on the curve")
        return CurvePoint(self, x, y)

    def branch_point(self, r) -> "CurvePoint":
        r = _rational(r)
        P = self._branch_points().get(r)
        if P is None:
            raise ValueError(f"{r} is not a root of f")
        return P

    def rational_branch_points(self) -> List["CurvePoint"]:
        return list(self._branch_points().values())

    # -- functions ---------------------------------------------------------

    def zero_fn(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self, polyq.ZERO, polyq.ZERO, polyq.ONE)

    def one_fn(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self, polyq.ONE, polyq.ZERO, polyq.ONE)

    def x_fn(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self, polyq.X, polyq.ZERO, polyq.ONE)

    def y_fn(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self, polyq.ZERO, polyq.ONE, polyq.ONE)

    def function(self, A, B=polyq.ZERO, den=polyq.ONE) -> "FunctionFieldElement":
        return FunctionFieldElement(self, polyq.poly(A), polyq.poly(B), polyq.poly(den))

    # -- local expansions ----------------------------------------------------
    #
    # Each curve keeps the factorisation of f and its branch points.  The
    # Laurent windows below are built afresh on each call, for the public
    # laurent_at and evaluate; the package's own conditions off the branch
    # locus read the Taylor window of y from _y_window instead.

    def _y_window(self, P: "CurvePoint", n: int) -> List[Scalar]:
        """The first n Taylor coefficients of y in x - x0 at P = (x0, y0),
        off the branch locus: the Hensel lift of sqrt(f) from y0."""
        return polyq.sqrt_window(polyq.taylor(self.f, P.x, n), P.y, n)

    def _f_roots(self) -> Tuple[List[Tuple[Union[int, Fraction], int]], Poly]:
        """Rational roots of f with multiplicities, and the cofactor.
        The constructor has proved f squarefree, so no second gcd runs."""
        if self._roots is None:
            self._roots = polyq.rational_roots(self.f, squarefree=True)
        return self._roots

    def _branch_points(self) -> Dict[Union[int, Fraction], "CurvePoint"]:
        """The rational branch points, keyed by x-coordinate and in
        increasing order; built on the first call."""
        if self._branch is None:
            self._branch = {r: CurvePoint(self, r, 0)
                            for r, _m in self._f_roots()[0]}
        return self._branch

    def x_series_at_branch(self, r: Fraction, cut: int) -> TSeries:
        """Series of x - r in the parameter t = y at the branch point (r, 0),
        solving f(x(t)) = t^2 by Newton's method.  s = t^2 / f'(r) is exact
        below t^4, and each step s <- s - (f(r + s) - t^2) / f'(r + s),
        taken below twice that precision, doubles it: about log2(cut)
        compositions."""
        from .series import TSeries
        self.branch_point(r)  # r must be a root of f
        fshift = polyq.shift(self.f, r)  # f(r+s), constant term 0
        dshift = polyq.derivative(fshift)  # f'(r+s), f'(r) != 0

        def t2(n: int) -> TSeries:
            return TSeries.from_poly_coeffs([0, 0, 1], n)

        s = TSeries.from_poly_coeffs([0, 0, Fraction(1) / fshift[1]], cut)
        prec = 4  # s is exact below t^prec
        while prec < cut:
            prec = min(2 * prec, cut)
            s = TSeries.from_poly_coeffs(s.coeffs, prec, s.val)
            s = s - (_compose_poly(fshift, s, prec) - t2(prec)) \
                * _compose_poly(dshift, s, prec).inverse()
        if not (_compose_poly(fshift, s, cut) - t2(cut)).is_empty():
            raise RuntimeError("branch series failed")
        return s

    def y_series_at(self, P: "CurvePoint", cut: int) -> TSeries:
        """Series of y in the local parameter at a finite point."""
        from .series import TSeries
        if P.at_infinity:
            raise ValueError("y_series_at needs a finite point")
        if P.y == 0:
            return TSeries.from_poly_coeffs([0, 1], cut)
        fx = TSeries.from_poly_coeffs(polyq.taylor(self.f, P.x, cut), cut)
        return fx.sqrt_with(P.y)

    def y_series_at_infinity(self, cut: int) -> TSeries:
        """Series of y at infinity: y = t^-(2g+1) sqrt(G(t^2)) where
        G(s) = f(1/s) * s^(2g+1) has nonzero constant term lead(f).  The
        window reaches at least t^(-2g), just past the leading term."""
        from .series import TSeries
        m = 2 * self.genus + 1
        cut = max(cut, 1 - m)
        coeffs: List = []
        for c in reversed(self.f):
            coeffs.append(c)
            coeffs.append(0)
        inner = TSeries.from_poly_coeffs(coeffs, cut + m)
        root = inner.sqrt_with(make_sqrt(polyq.lead(self.f)))
        return TSeries(-m, root.coeffs, cut)  # times t^-m

    def _poly_series_at(self, p: Poly, P: "CurvePoint", cut: int) -> TSeries:
        """Laurent series of the polynomial function p(x) at P, below cut:
        the closed form p(t^-2) at infinity, p(r + s) composed with
        s = x(t) - r at a branch point r, and the Taylor coefficients of p
        elsewhere."""
        from .series import TSeries
        if P.at_infinity:
            if not p:
                return TSeries.zero(cut)
            n = polyq.deg(p)
            lo = -2 * n
            if cut <= lo:
                return TSeries.zero(cut)  # all exponents of p(t^-2) lie at or above cut
            coeffs: List = [0] * (cut - lo)
            for i, c in enumerate(p):
                k = -2 * i - lo
                if 0 <= k < len(coeffs):
                    coeffs[k] = c
            return TSeries(lo, coeffs, cut)
        if P.y == 0:
            return _compose_poly(polyq.shift(p, P.x),
                                 self.x_series_at_branch(P.x, cut), cut)
        return TSeries.from_poly_coeffs(polyq.taylor(p, P.x, cut), cut)

    def _poly_val(self, p: Poly, P: "CurvePoint") -> int:
        """Valuation at P of the nonzero polynomial function p(x)."""
        if P.at_infinity:
            return -2 * polyq.deg(p)
        m = polyq.mult_at(p, P.x)
        return 2 * m if P.y == 0 else m

    def laurent_at(self, fn: "FunctionFieldElement", P: "CurvePoint",
                   nterms: int = 1) -> TSeries:
        """Exact Laurent expansion of fn at P: the window runs from the
        valuation v up to the cut v + nterms (nterms at least 1).  The
        valuation comes first and sizes the series windows."""
        nterms = max(nterms, 1)
        v = self.valuation(fn, P)
        vd = self._poly_val(fn.den, P)
        cut = v + vd + nterms  # the numerator starts at t^(v + vd)
        q = self._poly_series_at(fn.A, P, cut)
        if fn.B:
            # the B y window must reach cut past the leading terms of y and B
            if P.at_infinity:
                b = self._poly_series_at(fn.B, P, cut + 2 * self.genus + 1)
                y = self.y_series_at_infinity(cut + 2 * polyq.deg(fn.B))
            else:
                b = self._poly_series_at(fn.B, P, cut)
                y = self.y_series_at(P, cut)
            q = q + b * y
        if fn.den != polyq.ONE:
            q = q * self._poly_series_at(fn.den, P, vd + nterms).inverse()
        if q.is_empty() or q.val != v:
            raise RuntimeError("series disagrees with valuation")
        return q

    def evaluate(self, fn: "FunctionFieldElement", P: "CurvePoint") -> Scalar:
        """Value of fn at a point where it has no pole."""
        s = self.laurent_at(fn, P, nterms=1)
        if s.val < 0:
            raise ZeroDivisionError("function has a pole at the point")
        return s.coeff(0)

    # -- valuations ----------------------------------------------------------

    def valuation(self, fn: "FunctionFieldElement", P: "CurvePoint") -> int:
        """Order of vanishing of fn at P (negative at poles)."""
        if fn.is_zero():
            raise ValueError("the zero function has no valuation")
        A, B, den = fn.A, fn.B, fn.den
        if not (P.at_infinity or P.y == 0):
            return self._val_num_at(A, B, P) - polyq.mult_at(den, P.x)
        # y has odd valuation here and x even, so A and B y never cancel
        y_val = -(2 * self.genus + 1) if P.at_infinity else 1
        cands = []
        if A:
            cands.append(self._poly_val(A, P))
        if B:
            cands.append(self._poly_val(B, P) + y_val)
        return min(cands) - self._poly_val(den, P)

    def _val_num_at(self, A: Poly, B: Poly, P: "CurvePoint",
                    norm_mult: Optional[int] = None) -> int:
        """Valuation of A + B y at a finite non-branch point P = (x0, y0),
        with no series.  Off the branch locus x - x0 is a uniformiser, so
        dividing out (x - x0)^k, the largest power dividing A and B, adds
        k.  If then A + B y0 = 0 with y0 != 0, B(x0) != 0 (else A(x0) = 0
        too, against the choice of k), so A - B y takes -2 B(x0) y0 != 0
        at P and is a unit there: ord_P(A + B y) = ord_P(A^2 - B^2 f),
        which is M, the multiplicity of x0 in that norm.  That norm is the
        norm of the A and B passed in divided by (x - x0)^(2k), so a
        caller that holds its multiplicity at x0 passes it as norm_mult
        and the norm is not rebuilt: M = norm_mult - 2k."""
        x0 = P.x
        kA, A1 = polyq.deflate(A, x0) if A else (None, A)
        k, B = polyq.deflate(B, x0, kA)
        A = A1 if k == kA else polyq.deflate(A, x0, k)[1]
        val0 = polyq.eval_at(A, x0) + polyq.eval_at(B, x0) * P.y
        if val0 != 0:
            return k
        if norm_mult is not None:
            return norm_mult - k
        return k + polyq.mult_at(_norm(A, B, self.f), x0)

    # -- divisors ------------------------------------------------------------

    def divisor_of(self, fn: "FunctionFieldElement") -> "Divisor":
        """Principal divisor of fn: the orders at infinity and at each point
        over a rational root x0 of den or of the norm A^2 - B^2 f.  Off
        the branch locus _val_num_at gives one sheet P, from the norm's
        multiplicity at x0 with no second norm built, and the other follows
        from fn * iota*fn = norm / den^2, since x - x0 is a uniformiser at
        both: ord_P + ord_iotaP = mult_x0(norm) - 2 mult_x0(den).  Raises
        UnrepresentableSupportError when a zero or pole has an irrational
        x-coordinate."""
        if fn.is_zero():
            raise ValueError("the zero function has no divisor")
        A, B = fn.A, fn.B
        norm = _norm(A, B, self.f)
        if not norm:
            raise RuntimeError("nonzero function with zero norm")
        poles, cof = polyq.rational_roots(fn.den)
        if polyq.deg(cof) > 0:
            raise UnrepresentableSupportError(
                f"pole support has irrational x-coordinates: {polyq.format_poly(cof)}")
        zeros, cof = polyq.rational_roots(norm)
        if polyq.deg(cof) > 0:
            raise UnrepresentableSupportError(
                f"zero support has irrational x-coordinates: {polyq.format_poly(cof)}")
        data = {self.infinity(): self.valuation(fn, self.infinity())}
        poles, zeros = dict(poles), dict(zeros)
        for x0 in {**poles, **zeros}:
            if polyq.eval_at(self.f, x0) == 0:
                W = self.branch_point(x0)
                # ord_W(norm) = 2 ord_W(A + B y), as the involution fixes W
                data[W] = self.valuation(fn, W)
                if data[W] + 2 * poles.get(x0, 0) != zeros.get(x0, 0):
                    raise RuntimeError(
                        "branch valuation disagrees with norm multiplicity")
            else:
                P = self.point(x0)
                data[P] = (self._val_num_at(A, B, P, zeros.get(x0, 0))
                           - poles.get(x0, 0))
                data[P.conjugate()] = (zeros.get(x0, 0) - 2 * poles.get(x0, 0)
                                       - data[P])
        D = Divisor(data)
        if D.degree() != 0:
            raise RuntimeError("principal divisor must have degree zero")
        return D


def _norm(A: Poly, B: Poly, f: Poly) -> Poly:
    """A^2 - B^2 f, the norm of A + B y over Q(x)."""
    return polyq.sub(polyq.mul(A, A), polyq.mul(polyq.mul(B, B), f))


def _compose_poly(p: Iterable, s: TSeries, cut: int) -> TSeries:
    """p(s(t)) below cut for a polynomial p and a series s with
    s.val >= 0; when s.val > 0 the powers s^i with i s.val >= cut vanish
    there, so p's coefficients from that degree on are not read."""
    from .series import TSeries
    if not s.is_empty() and s.val < 0:
        raise ValueError("cannot compose a polynomial with a pole")
    coeffs = list(p)
    if s.val > 0:
        coeffs = coeffs[:max(0, (cut - 1) // s.val + 1)]
    acc = TSeries.zero(cut)
    for c in reversed(coeffs):
        acc = acc * s + TSeries.from_poly_coeffs([c], cut)
    return acc


class CurvePoint:
    """A rational point of the curve: finite (x, y) with rational x and y in
    Q or a quadratic extension, or the single point at infinity."""

    __slots__ = ("curve", "x", "y", "at_infinity", "_key", "_hash")

    def __init__(self, curve: HyperellipticCurve, x, y, at_infinity: bool = False):
        self.curve = curve
        self.at_infinity = at_infinity
        if at_infinity:
            self.x = None
            self.y = None
            self._key = (1, 0, 0, 0, 0, 0)
        else:
            self.x = _rational(x)
            if isinstance(y, QuadExt):
                self.y = QuadExt(polyq.rational(y.u), polyq.rational(y.v), y.d)
                self._key = (0, self.x, 1, self.y.u, self.y.v, y.d)
            else:
                self.y = _rational(y)
                self._key = (0, self.x, 0, self.y, 0, 0)
        # points are never mutated, so the sort key and hash are kept
        self._hash = hash(self._key)

    def is_branch(self) -> bool:
        return (not self.at_infinity) and self.y == 0

    def is_rational(self) -> bool:
        return self.at_infinity or not isinstance(self.y, QuadExt)

    def conjugate(self) -> "CurvePoint":
        """Hyperelliptic involution (x, y) -> (x, -y); for points with y in
        a quadratic extension this is also the Galois conjugate."""
        if self.at_infinity:
            return self
        return CurvePoint(self.curve, self.x, -self.y)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.at_infinity:
            return "Inf"
        return f"({self.x}, {self.y})"


class FunctionFieldElement:
    """(A(x) + B(x) y) / den(x), stored in normal form: den monic and
    coprime to gcd(A, B)."""

    __slots__ = ("curve", "A", "B", "den")

    def __init__(self, curve: HyperellipticCurve, A, B, den):
        A, B, den = polyq.poly(A), polyq.poly(B), polyq.poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        # a constant den is coprime to everything
        g = polyq.gcd(polyq.gcd(A, B), den) if polyq.deg(den) > 0 else polyq.ONE
        if polyq.deg(g) > 0:
            A = polyq.exact_div(A, g)
            B = polyq.exact_div(B, g)
            den = polyq.exact_div(den, g)
        lc = polyq.lead(den)
        if lc != 1:
            inv = Fraction(1) / lc
            A = polyq.scale(A, inv)
            B = polyq.scale(B, inv)
            den = polyq.scale(den, inv)
        self.curve = curve
        self.A = A
        self.B = B
        self.den = den

    @classmethod
    def _normal(cls, curve: HyperellipticCurve, A: Poly, B: Poly,
                den: Poly) -> "FunctionFieldElement":
        """The element of fields that are in normal form already (trimmed,
        den monic and coprime to gcd(A, B)), built without a gcd."""
        fn = object.__new__(cls)
        fn.curve, fn.A, fn.B, fn.den = curve, A, B, den
        return fn

    def is_zero(self) -> bool:
        return not self.A and not self.B

    def _check(self, other):
        if self.curve != other.curve:
            raise ValueError("functions on different curves")

    def _coerce(self, other) -> "FunctionFieldElement":
        if isinstance(other, FunctionFieldElement):
            return other
        c = _rational(other)
        return FunctionFieldElement(self.curve, (c,), polyq.ZERO, polyq.ONE)

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        A = polyq.add(polyq.mul(self.A, other.den), polyq.mul(other.A, self.den))
        B = polyq.add(polyq.mul(self.B, other.den), polyq.mul(other.B, self.den))
        return FunctionFieldElement(self.curve, A, B, polyq.mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return FunctionFieldElement(self.curve, polyq.neg(self.A),
                                    polyq.neg(self.B), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        f = self.curve.f
        A = polyq.add(polyq.mul(self.A, other.A),
                      polyq.mul(polyq.mul(self.B, other.B), f))
        B = polyq.add(polyq.mul(self.A, other.B), polyq.mul(self.B, other.A))
        return FunctionFieldElement(self.curve, A, B, polyq.mul(self.den, other.den))

    __rmul__ = __mul__

    def conj(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self.curve, self.A, polyq.neg(self.B), self.den)

    def norm_fn(self) -> "FunctionFieldElement":
        """fn * conj(fn) = (A^2 - B^2 f) / den^2, a rational function of x."""
        N = _norm(self.A, self.B, self.curve.f)
        return FunctionFieldElement(self.curve, N, polyq.ZERO,
                                    polyq.mul(self.den, self.den))

    def inverse(self) -> "FunctionFieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        N = _norm(self.A, self.B, self.curve.f)
        return FunctionFieldElement(self.curve, polyq.mul(self.den, self.A),
                                    polyq.neg(polyq.mul(self.den, self.B)), N)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.curve.one_fn()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, (FunctionFieldElement, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return (self.A, self.B, self.den) == (other.A, other.B, other.den)

    def __hash__(self):
        if not self.B and self.den == polyq.ONE and len(self.A) <= 1:
            return hash(self.A[0] if self.A else 0)  # equals its rational
        return hash((self.A, self.B, self.den))

    def __repr__(self):
        num = polyq.format_poly(self.A) if self.A else ""
        if self.B:
            bs = polyq.format_poly(self.B)
            ypart = f"({bs})*y" if polyq.deg(self.B) > 0 or polyq.lead(self.B) != 1 else "y"
            num = f"{num} + {ypart}" if num else ypart
        if not num:
            num = "0"
        if self.den == polyq.ONE:
            return num
        return f"({num})/({polyq.format_poly(self.den)})"


class Divisor:
    """Finite formal Z-combination of curve points with deterministic
    ordering of the support."""

    __slots__ = ("data",)

    def __init__(self, data: Optional[Dict[CurvePoint, int]] = None):
        self.data = {p: n for p, n in (data or {}).items() if n != 0}

    @staticmethod
    def of_point(P: CurvePoint, n: int = 1) -> "Divisor":
        return Divisor({P: n})

    def items(self) -> List[Tuple[CurvePoint, int]]:
        return sorted(self.data.items(), key=lambda kv: kv[0]._key)

    def support(self) -> List[CurvePoint]:
        return [p for p, _ in self.items()]

    def __getitem__(self, P: CurvePoint) -> int:
        return self.data.get(P, 0)

    def degree(self) -> int:
        return sum(self.data.values())

    def __add__(self, other: "Divisor") -> "Divisor":
        data = dict(self.data)
        for p, n in other.data.items():
            data[p] = data.get(p, 0) + n
        return Divisor(data)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __neg__(self) -> "Divisor":
        return Divisor({p: -n for p, n in self.data.items()})

    def __rmul__(self, n: int) -> "Divisor":
        return Divisor({p: n * m for p, m in self.data.items()})

    __mul__ = __rmul__

    def is_effective(self) -> bool:
        return all(n >= 0 for n in self.data.values())

    def is_zero(self) -> bool:
        return not self.data

    def galois_stable(self) -> bool:
        """True when conjugate points carry equal coefficients, so the
        divisor is defined over Q."""
        for p, n in self.data.items():
            if not p.is_rational() and self.data.get(p.conjugate(), 0) != n:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.data == other.data

    def __hash__(self):
        return hash(frozenset(self.data.items()))

    def key(self):
        """A hashable tuple of (point key, coefficient) in support order.
        No module of the package calls it; the benchmark's traced runs key
        their rr_space repeat counts by it (perfbench/tracing.py)."""
        return tuple((p._key, n) for p, n in self.items())

    def __repr__(self):
        if not self.data:
            return "0"
        bits = []
        for p, n in self.items():
            if n == 1:
                bits.append(f"{p!r}")
            else:
                bits.append(f"{n}*{p!r}")
        return " + ".join(bits)


def standard_curve(g: int) -> HyperellipticCurve:
    """y^2 = x(x-1)...(x-2g): all 2g+1 finite branch points rational."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    return HyperellipticCurve(polyq.from_roots(range(2 * g + 1)))
