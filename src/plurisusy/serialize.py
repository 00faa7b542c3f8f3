"""JSON schemas for curves, points, divisors, thetas, supercurves and
models, plus the function-string format "a(x) + b(x)*y".

Rationals always serialize as exact "p/q" strings, never floats.  A point
with y outside Q is stored as {"x": ..., "y_in_ext": [u, v]} meaning
u + v*sqrt(f(x)).  Every writer sorts its keys and every reader rebuilds
the identical in-memory value, so artifacts round-trip bit for bit.

parse_function reads a function string in the grammar of the package's
`reader`, with the names x and y, in Q(x)[y] without applying y^2 = f,
and the result must have y-degree at most 1.  A negative power needs a
nonzero y-free base and a divisor must be nonzero and y-free, so y/y and
x*y/y, which earlier versions cancelled, are rejected.  Exponents, and
the exponent of a decimal, here and in a rational string, stop at
`reader.MAX_EXPONENT`.  Anything else raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List

from . import polyq, reader
from .curve import (CurvePoint, Divisor, FunctionFieldElement,
                    HyperellipticCurve)
from .fieldext import make_sqrt, rational_sqrt
from .riemann_roch import ThetaCharacteristic, theta_from_subset

if TYPE_CHECKING:
    from .pluricanonical import PluriCanonicalModel
    from .supercurve import SplitSupercurve

dumps = reader.dumps  # kept there so the CLI writes JSON without serialize


def _frac(s) -> Fraction:
    if isinstance(s, bool) or isinstance(s, float):
        raise ValueError(f"exact rational expected, got {s!r}")
    try:  # a string's decimal exponent stops at reader.MAX_EXPONENT
        return reader.decimal(s) if isinstance(s, str) else Fraction(s)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc


def _int(v, field: str) -> int:
    if type(v) is not int:  # bool is an int too; int() would truncate 5.9
        raise ValueError(f"{field} must be an integer, got {v!r}")
    return v


def curve_to_json(curve: HyperellipticCurve) -> Dict:
    return {"f_coeffs": [str(c) for c in curve.f]}


def curve_from_json(obj: Dict) -> HyperellipticCurve:
    return HyperellipticCurve(polyq.poly(_frac(c) for c in obj["f_coeffs"]))


def point_to_json(P: CurvePoint) -> Dict:
    if P.at_infinity:
        return {"inf": True}
    if P.is_rational():
        return {"x": str(P.x), "y": str(P.y)}
    # P.y = u + v*sqrt(d) with d squarefree and f(x) = d*s^2; report the
    # coordinates relative to sqrt(f(x)) itself.
    fx = polyq.eval_at(P.curve.f, P.x)
    ratio = Fraction(fx) / P.y.d
    s = rational_sqrt(ratio)
    if s is None:
        raise ValueError(f"{ratio} is not a rational square")
    return {"x": str(P.x), "y_in_ext": [str(P.y.u), str(P.y.v / s)]}


def point_from_json(curve: HyperellipticCurve, obj: Dict) -> CurvePoint:
    if obj.get("inf"):
        return curve.infinity()
    x = _frac(obj["x"])
    if "y_in_ext" in obj:
        u, v = (_frac(t) for t in obj["y_in_ext"])
        y = u + v * make_sqrt(polyq.eval_at(curve.f, x))
        return curve.point(x, y=y)
    return curve.point(x, y=_frac(obj["y"]))


def divisor_to_json(D: Divisor) -> List[Dict]:
    return [{"point": point_to_json(P), "multiplicity": n}
            for P, n in D.items()]


def divisor_from_json(curve: HyperellipticCurve, obj: List) -> Divisor:
    D = Divisor({})
    for entry in obj:
        P = point_from_json(curve, entry["point"])
        D = D + Divisor({P: _int(entry["multiplicity"], "multiplicity")})
    return D


def theta_to_json(theta: ThetaCharacteristic) -> Dict:
    return {"subset": list(theta.subset)}


def theta_from_json(curve: HyperellipticCurve, obj: Dict) -> ThetaCharacteristic:
    subset = obj["subset"]
    if not isinstance(subset, list):
        raise ValueError(
            f"theta subset must be a list of integers, got {subset!r}")
    return theta_from_subset(curve, subset)


def supercurve_to_json(X: SplitSupercurve) -> Dict:
    return {"curve": curve_to_json(X.curve), "L": divisor_to_json(X.L.rep)}


def supercurve_from_json(obj: Dict) -> SplitSupercurve:
    from .supercurve import make_split_supercurve
    curve = curve_from_json(obj["curve"])
    L = obj["L"]
    if isinstance(L, dict) and "subset" in L:
        return make_split_supercurve(curve, theta_from_json(curve, L))
    return make_split_supercurve(curve, divisor_from_json(curve, L))


def function_to_string(fn: FunctionFieldElement) -> str:
    parts = []
    if polyq.deg(fn.A) >= 0:
        parts.append(f"({polyq.format_poly(fn.A, 'x')})")
    if polyq.deg(fn.B) >= 0:
        parts.append(f"({polyq.format_poly(fn.B, 'x')})*y")
    if not parts:
        return "0"
    num = " + ".join(parts)
    if fn.den == polyq.ONE:
        return num
    return f"({num})/({polyq.format_poly(fn.den, 'x')})"


# A function string is evaluated in Q(x)[y], with y^2 = f not applied: as
# the list of its y-coefficients, y-free function field elements with the
# coefficient of y^i at index i and no trailing zero.

_YPoly = List[FunctionFieldElement]

# The package writes y-degree at most 1.  With y^2 = f not applied, a
# string whose y-degree passes 1 comes back only by cancelling, and the
# cost of a product grows with the square of the y-degree.
MAX_Y_DEGREE = 2


def _trim(cs: _YPoly) -> _YPoly:
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _ymul(a: _YPoly, b: _YPoly) -> _YPoly:
    out = []
    for k in range(len(a) + len(b) - 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        terms = [a[i] * b[k - i] for i in range(lo, hi + 1)]
        out.append(sum(terms[1:], terms[0]))
    return _trim(out)


class _YRing:
    """Q(x)[y] as the ring of `reader.evaluate`, which checks its rules:
    its elements' coefficients are the y-free elements of Q(x), and no
    result may pass y-degree MAX_Y_DEGREE."""

    var, gens, max_grade = "x", "y", MAX_Y_DEGREE

    def __init__(self, curve: HyperellipticCurve):
        self.curve = curve

    def const(self, c: Fraction) -> _YPoly:
        return [self.curve.function((c,))] if c else []

    @staticmethod
    def neg(a: _YPoly) -> _YPoly:
        return [-c for c in a]

    @staticmethod
    def add(a: _YPoly, b: _YPoly) -> _YPoly:
        return _trim([p + q for p, q in zip(a, b)] + a[len(b):] + b[len(a):])

    mul = staticmethod(_ymul)

    def pow(self, a: _YPoly, n: int) -> _YPoly:
        if len(a) == 1:
            return [a[0] ** n]
        out = [self.curve.one_fn()]
        for _ in range(n):
            out = _ymul(out, a)
        return out

    @staticmethod
    def pairs(a: _YPoly):
        return [(c.A, c.den) for c in a]

    @staticmethod
    def grade(a: _YPoly) -> int:
        return len(a) - 1

    @staticmethod
    def inverse(a: _YPoly) -> _YPoly:
        return [a[0] ** -1]


def parse_function(curve: HyperellipticCurve, s: str) -> FunctionFieldElement:
    """Parse "a(x) + b(x)*y", in the grammar of the module docstring,
    into a function field element; a malformed string raises ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"function string expected, got {s!r}")
    zero = curve.function(polyq.ZERO)
    names = {"x": [curve.x_fn()], "y": [zero, curve.one_fn()]}
    try:
        cs = reader.evaluate(s, names, _YRing(curve))
    except ValueError as exc:
        raise ValueError(f"function string {s!r}: {exc}") from exc
    if len(cs) > 2:
        raise ValueError(f"function string {s!r}: y-degree {len(cs) - 1} "
                         f"is above 1")
    a, b = (cs + [zero, zero])[:2]
    return a + b * curve.y_fn()


def model_to_json(M: PluriCanonicalModel) -> Dict:
    return {
        "curve": curve_to_json(M.curve),
        "nu": M.nu,
        "ambient": {"even": M.ambient.even, "odd": M.ambient.odd},
        "even_sections": [function_to_string(s) for s in M.even_sections],
        "odd_sections": [function_to_string(s) for s in M.odd_sections],
        "cleared_divisors": {
            "even": divisor_to_json(M.cleared_divisors["even"]),
            "odd": divisor_to_json(M.cleared_divisors["odd"]),
        },
    }


def model_from_json(obj: Dict) -> PluriCanonicalModel:
    from .pluricanonical import PluriCanonicalModel
    from .supercurve import RankPair
    curve = curve_from_json(obj["curve"])
    ambient = RankPair(_int(obj["ambient"]["even"], "ambient.even"),
                       _int(obj["ambient"]["odd"], "ambient.odd"))
    even = tuple(parse_function(curve, s) for s in obj["even_sections"])
    odd = tuple(parse_function(curve, s) for s in obj["odd_sections"])
    cleared = {
        "even": divisor_from_json(curve, obj["cleared_divisors"]["even"]),
        "odd": divisor_from_json(curve, obj["cleared_divisors"]["odd"]),
    }
    return PluriCanonicalModel(curve, _int(obj["nu"], "nu"), ambient, even,
                               odd, cleared)
