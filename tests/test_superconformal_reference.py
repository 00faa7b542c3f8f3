"""check-superconformal and the Grassmann algebra over Q(z) against the
sympy engine they replaced.

The reference below is the former `cli._parse_super` (sympify, expand,
then `sp.Poly` in the odd generators) with a minimal Grassmann algebra on
sympy coefficients, each kept in sympy's cancelled form as the old
`GrassmannElement` kept it.  On seeded inputs with in-order monomials,
where the old reader's commutative reading was right, the CLI must give
the same exit code, text and JSON, and random elements must print the
same."""

import json
import random

import pytest
import sympy as sp

from plurisusy import cli
from plurisusy.graded_algebra import GrassmannAlgebra

Z = sp.Symbol("z")


# -- the reference ----------------------------------------------------------


def reference_parse_super(gens, text):
    """The former cli._parse_super, returning {sorted subset: coefficient}."""
    syms = {name: sp.Symbol(name) for name in gens}
    expr = sp.expand(sp.sympify(text, locals={**syms, "z": Z},
                                rational=True))
    poly = sp.Poly(expr, *[syms[n] for n in gens])
    terms = {}
    for monom, coeff in poly.terms():
        if any(e > 1 for e in monom):
            continue  # squares of odd generators vanish
        key = tuple(i for i, e in enumerate(monom) if e == 1)
        terms[key] = terms.get(key, 0) + coeff
    return _norm(terms)


def _norm(terms):
    out = {}
    for k, c in terms.items():
        c = sp.sympify(c)
        if not c.is_Rational:
            c = sp.cancel(sp.together(c))
        if c != 0:
            out[k] = c
    return out


def _add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return _norm(out)


def _mul(a, b):
    out = {}
    for s, cs in a.items():
        for t, ct in b.items():
            if set(s) & set(t):
                continue
            inv = sum(1 for x in s for y in t if x > y)
            key = tuple(sorted(s + t))
            out[key] = out.get(key, 0) + (-1) ** inv * cs * ct
    return _norm(out)


def _dz(a):
    return _norm({k: sp.diff(c, Z) for k, c in a.items()})


def _D(a):
    """d/dtheta + theta d/dz, with theta the generator of index 0."""
    out = {k[1:]: c for k, c in a.items() if k[:1] == (0,)}
    return _add(out, _mul({(0,): 1}, _dz(a)))


def reference_repr(gens, terms):
    if not terms:
        return "0"
    return " + ".join(
        f"({terms[k]})" + ("*" + "*".join(gens[i] for i in k) if k else "")
        for k in sorted(terms, key=lambda s: (len(s), s)))


def reference_check(zp_text, tp_text):
    """(exit code, text, JSON text) of the former check-superconformal."""
    gens = [n for n in cli._ODD_NAMES
            if n == "theta" or n in zp_text or n in tp_text]
    zp = reference_parse_super(gens, zp_text)
    tp = reference_parse_super(gens, tp_text)
    residual = _add(_D(zp), _mul(tp, _D(tp)), -1)
    ok = not residual
    res = reference_repr(gens, residual)
    text = "superconformal: yes" if ok else \
        f"superconformal: no\nresidual: {res}"
    payload = {"superconformal": ok, "residual": res,
               "jacobian_body_invertible": _dz(zp).get((), 0) != 0}
    return (0 if ok else 1, text + "\n",
            json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- seeded inputs ------------------------------------------------------------


NAMES = ("theta", "eta", "xi", "chi")


def _rat(rng, nonzero=False):
    q = rng.choice((1, 1, 1, 2, 3, 4))
    p = rng.choice([i for i in range(-5, 6) if i or not nonzero])
    if q == 2 and rng.random() < 0.3:
        return f"{p / 2}"  # a decimal, read exactly by both readers
    return f"{p}/{q}" if q != 1 else f"{p}"


def _poly(rng, lo=0):
    deg = rng.randint(lo, 2)
    pw = rng.choice(("**", "^"))
    bits = [f"{_rat(rng, i == deg)}*z{pw}{i}" if i > 1 else
            (f"{_rat(rng, i == deg)}*z" if i == 1 else _rat(rng))
            for i in range(deg, -1, -1)]
    return "(" + " + ".join(bits) + ")"


def _coeff(rng):
    if rng.random() < 0.3:
        return f"{_poly(rng)}/{_poly(rng, lo=1)}"
    return _poly(rng)


def _random_side(rng, gens, parity):
    monos = [()] + [tuple(g for i, g in enumerate(gens) if m >> i & 1)
                    for m in range(1, 1 << len(gens))]
    monos = [m for m in monos if len(m) % 2 == parity]
    terms = []
    for m in rng.sample(monos, rng.randint(1, min(3, len(monos)))):
        terms.append("*".join((_coeff(rng),) + m))
    return " + ".join(terms)


def _superconformal_pair(rng):
    kind = rng.randrange(3)
    if kind == 0:  # the benchmark's affine family
        a, b = rng.randint(1, 5), rng.randint(-5, 5)
        return f"{a * a}*z + {b} + {a}*theta*eta", f"{a}*theta + eta"
    if kind == 1:  # a Moebius transition: ad - bc = e^2
        c, d, e, a = (rng.randint(1, 5), rng.randint(1, 6),
                      rng.randint(1, 5), rng.randint(-4, 4))
        b = sp.Rational(a * d - e * e, c)
        return (f"({a}*z + {b})/({c}*z + {d})",
                f"{e}/({c}*z + {d})*theta")
    g, b = rng.choice(NAMES[1:]), rng.randint(-9, 9)
    return f"z + {b} + theta*{g}", f"theta + {g}"


def _inputs(n=300, seed=14):
    """n distinct (z', theta') pairs, about a fifth superconformal."""
    rng = random.Random(seed)
    cases = {}
    while len(cases) < n:
        if rng.random() < 0.2:
            case = _superconformal_pair(rng)
        else:
            k = rng.randint(1, 3)
            gens = ["theta"] + rng.sample(NAMES[1:], k - 1)
            gens.sort(key=NAMES.index)
            case = (_random_side(rng, gens, 0), _random_side(rng, gens, 1))
        cases[case] = None
    return list(cases)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    assert cap.err == ""
    return code, cap.out


def test_cli_matches_the_sympy_engine(capsys):
    codes = set()
    for zp, tp in _inputs():
        code, text, js = reference_check(zp, tp)
        assert _run(capsys, "check-superconformal", zp, tp) == \
            (code, text), (zp, tp)
        assert _run(capsys, "check-superconformal", zp, tp, "--format",
                    "json") == (code, js), (zp, tp)
        codes.add(code)
    assert codes == {0, 1}


# -- library elements --------------------------------------------------------


def _random_rational(rng):
    num = sum(rng.randint(-4, 4) * Z ** i for i in range(rng.randint(0, 2) + 1))
    if rng.random() < 0.5:
        return num
    den = sum(rng.randint(-3, 3) * Z ** i for i in range(2)) + Z ** 2
    return num / den * sp.Rational(rng.randint(1, 3), rng.randint(1, 3))


def _random_terms(rng, n):
    return {tuple(i for i in range(n) if m >> i & 1): _random_rational(rng)
            for m in range(1 << n) if rng.random() < 0.6}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_element_repr_matches_the_sympy_engine(n):
    rng = random.Random(140 + n)
    gens = NAMES[:n]
    alg = GrassmannAlgebra(gens)
    for _ in range(15):
        ta, tb = _random_terms(rng, n), _random_terms(rng, n)
        a, b = alg.element(ta), alg.element(tb)
        ra, rb = _norm(ta), _norm(tb)
        assert repr(a) == reference_repr(gens, ra)
        assert repr(a * b) == reference_repr(gens, _mul(ra, rb))
        assert repr(a + b) == reference_repr(gens, _add(ra, rb))
        assert repr(a.d_even()) == reference_repr(gens, _dz(ra))
