"""serialize.parse_function against the sympy reader it replaced.

The reference below is the former sympy body of parse_function.  The
native parser must return the same function field element on every
section string of the embed goldens, on random elements written by
function_to_string and on hand-written forms, and must reject malformed
strings with ValueError."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from plurisusy import polyq, serialize
from plurisusy.curve import standard_curve

GOLDEN = Path(__file__).with_name("golden")


def _poly_from_sympy(expr, x):
    import sympy as sp

    p = sp.Poly(expr, x)
    coeffs = []
    for c in reversed(p.all_coeffs()):
        r = sp.Rational(c)
        coeffs.append(Fraction(int(r.p), int(r.q)))
    return polyq.poly(coeffs)


def sympy_parse_function(curve, s):
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
    den = polyq.monic(_poly_from_sympy(sp.lcm(qa, qb), x))
    A = polyq.mul(_poly_from_sympy(pa, x), polyq.exact_div(den, qa_p))
    B = polyq.mul(_poly_from_sympy(pb, x), polyq.exact_div(den, qb_p))
    return curve.function(A, B, den)


def _same(curve, s):
    got = serialize.parse_function(curve, s)
    want = sympy_parse_function(curve, s)
    assert (got.A, got.B, got.den) == (want.A, want.B, want.den), s
    return got


def test_golden_model_sections_match_the_reference():
    records = [json.loads(p.read_text())
               for p in sorted(GOLDEN.glob("embed_*.json"))]
    # an embed below the very-ample threshold writes no model
    models = [json.loads(r["stdout"]) for r in records if r["exit"] == 0]
    assert models
    for m in models:
        curve = serialize.curve_from_json(m["curve"])
        for s in m["even_sections"] + m["odd_sections"]:
            _same(curve, s)


def _random_poly(rng, max_deg):
    return polyq.poly(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                      for _ in range(rng.randint(0, max_deg + 1)))


def test_random_elements_match_the_reference():
    rng = random.Random(12)
    curves = {g: standard_curve(g) for g in (2, 3, 4)}
    for _ in range(300):
        curve = curves[rng.randint(2, 4)]
        den = polyq.ZERO
        while not den:
            den = _random_poly(rng, 2)
        fn = curve.function(_random_poly(rng, curve.genus + 1),
                            _random_poly(rng, curve.genus), den)
        assert _same(curve, serialize.function_to_string(fn)) == fn


@pytest.mark.parametrize("s", [
    "x**2 + y/x", "1/2*x^3 - y", "(x - 1)^-1*y + x^2", "-(x + 1)*y",
    "1.5*x", "0", "((x + (1 - x)*(x + 2))/(3*(x - 2)))*((y))",
    "0.1 - +x", "y*y - y**2 + x", "(x^2 - 1)/(x - 1)",
])
def test_hand_written_forms_match_the_reference(s):
    _same(standard_curve(2), s)


def test_decimals_are_exact():
    C = standard_curve(2)
    assert serialize.parse_function(C, "1.5*x") == C.function(
        (0, Fraction(3, 2)))
    assert serialize.parse_function(C, "0.1") == Fraction(1, 10)


@pytest.mark.parametrize("s", [
    "y**2", "y*y", "sin(x)", "z", "1/0", "x/(x - x)", "1/y", "y/y",
    "x*y/y", "x +", "x**(1/2)", "x**1.0", "x**y", "",
    pytest.param("-" * 5000 + "x", id="5000-unary-minus"),
    pytest.param("(" * 300 + "x" + ")" * 300, id="300-parentheses"),
    "x < 1", "True", "'x'", "2j", "x // 2", "y**-1", "0**-1",
])
def test_malformed_strings_raise_value_error(s):
    with pytest.raises(ValueError):
        serialize.parse_function(standard_curve(2), s)


@pytest.mark.parametrize("s", [None, 5, ["x"]])
def test_non_strings_raise_value_error(s):
    with pytest.raises(ValueError):
        serialize.parse_function(standard_curve(2), s)
