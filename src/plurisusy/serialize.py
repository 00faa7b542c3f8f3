"""JSON schemas for curves, points, divisors, thetas, supercurves and
models, plus the function-string format "a(x) + b(x)*y".

Rationals always serialize as exact "p/q" strings, never floats.  A point
with y outside Q is stored as {"x": ..., "y_in_ext": [u, v]} meaning
u + v*sqrt(f(x)).  Every writer sorts its keys and every reader rebuilds
the identical in-memory value, so artifacts round-trip bit for bit.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Union

from . import polyq
from .curve import (CurvePoint, Divisor, FunctionFieldElement,
                    HyperellipticCurve)
from .fieldext import make_sqrt, rational_sqrt
from .pluricanonical import PluriCanonicalModel
from .riemann_roch import ThetaCharacteristic, theta_from_subset
from .supercurve import RankPair, SplitSupercurve, make_split_supercurve


def _frac(s) -> Fraction:
    if isinstance(s, bool) or isinstance(s, float):
        raise ValueError(f"exact rational expected, got {s!r}")
    try:
        return Fraction(s)
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
    s = rational_sqrt(fx / P.y.d)
    if s is None:
        raise ValueError(f"{fx / P.y.d} is not a rational square")
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
    if not isinstance(subset, list) or any(
            type(i) is not int for i in subset):  # bool is an int too
        raise ValueError(
            f"theta subset must be a list of integers, got {subset!r}")
    return theta_from_subset(curve, subset)


def supercurve_to_json(X: SplitSupercurve) -> Dict:
    return {"curve": curve_to_json(X.curve), "L": divisor_to_json(X.L.rep)}


def supercurve_from_json(obj: Dict) -> SplitSupercurve:
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


def _poly_from_sympy(expr, x) -> polyq.Poly:
    import sympy as sp

    p = sp.Poly(expr, x)
    coeffs = []
    for c in reversed(p.all_coeffs()):
        r = sp.Rational(c)
        coeffs.append(Fraction(int(r.p), int(r.q)))
    return polyq.poly(coeffs)


def parse_function(curve: HyperellipticCurve, s: str) -> FunctionFieldElement:
    """Parse "a(x) + b(x)*y" (rational coefficients, denominators in x
    allowed, y-degree at most 1) into a function field element."""
    import sympy as sp

    x, y = sp.symbols("x y")
    expr = sp.sympify(s, locals={"x": x, "y": y}, rational=True)
    a = sp.cancel(expr.subs(y, 0))
    b = sp.cancel(sp.together(expr - a) / y)
    if a.has(sp.zoo) or a.has(sp.nan) or b.free_symbols - {x} or \
            a.free_symbols - {x}:
        raise ValueError(f"function string must be linear in y: {s!r}")
    if sp.cancel(sp.together(expr - a - b * y)) != 0:
        raise ValueError(f"function string must be linear in y: {s!r}")
    pa, qa = sp.fraction(sp.cancel(a))
    pb, qb = sp.fraction(sp.cancel(b))
    qa_p = _poly_from_sympy(qa, x)
    qb_p = _poly_from_sympy(qb, x)
    den = polyq.lcm(qa_p, qb_p)
    A = polyq.mul(_poly_from_sympy(pa, x), polyq.exact_div(den, qa_p))
    B = polyq.mul(_poly_from_sympy(pb, x), polyq.exact_div(den, qb_p))
    return curve.function(A, B, den)


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


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
