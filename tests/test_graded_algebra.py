"""Grassmann algebra, Berezinian, and superconformal calculus."""

import random
import re
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from plurisusy import polyq
from plurisusy.graded_algebra import (GrassmannAlgebra, GrassmannElement,
                                      RationalFunction, SuperMatrix,
                                      VectorFieldSC, check_superconformal,
                                      superconformal_derivation,
                                      susy_generator_square)

z = sp.Symbol("z")
ALG3 = GrassmannAlgebra(("theta", "eta", "xi"))
ALG2 = GrassmannAlgebra(("theta", "eta"))
ALG1 = GrassmannAlgebra(("theta",))


def random_element(alg, rng, parity=None, poly=False):
    terms = {}
    n = len(alg.gens)
    subsets = [()] + [tuple(sorted(s)) for s in _subsets(range(n))]
    for S in subsets:
        if parity is not None and len(S) % 2 != parity:
            continue
        if rng.random() < 0.4:
            continue
        c = rng.randint(-4, 4)
        if poly and rng.random() < 0.5:
            c = c * z ** rng.randint(1, 2)
        terms[S] = c
    return alg.element(terms)


def _subsets(idx):
    idx = list(idx)
    out = []
    for mask in range(1, 1 << len(idx)):
        out.append([idx[i] for i in range(len(idx)) if mask >> i & 1])
    return out


# ---------------------------------------------------------------------------
# ring axioms
# ---------------------------------------------------------------------------


def test_supercommutativity_random():
    # a b = (-1)^{|a||b|} b a on homogeneous elements
    rng = random.Random(0)
    for _ in range(500):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = random_element(ALG3, rng, parity=pa)
        b = random_element(ALG3, rng, parity=pb)
        sign = -1 if pa * pb else 1
        assert a * b == (b * a) * sign


def test_associativity_random():
    rng = random.Random(1)
    for _ in range(200):
        a = random_element(ALG3, rng)
        b = random_element(ALG3, rng)
        c = random_element(ALG3, rng)
        assert (a * b) * c == a * (b * c)


def test_distributivity_random():
    rng = random.Random(2)
    for _ in range(100):
        a = random_element(ALG3, rng)
        b = random_element(ALG3, rng)
        c = random_element(ALG3, rng)
        assert a * (b + c) == a * b + a * c


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30))
def test_product_parity_additive(c0, c1, c2, c3):
    a = ALG2.element({(): c0, (0, 1): c1})
    b = ALG2.element({(0,): c2, (1,): c3})
    assert a.has_parity(0) and b.has_parity(1)
    assert (a * b).has_parity(1)
    assert (b * b).has_parity(0)


def test_generator_identities():
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    assert (th * th).is_zero()
    assert th * eta == -(eta * th)
    one = ALG2.one()
    assert (one + th * eta) * (one - th * eta) == one


def test_inverse_geometric_series():
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    u = ALG2.scalar(2) + th * eta
    assert u * u.inverse() == ALG2.one()
    with pytest.raises(ZeroDivisionError):
        (th * eta).inverse()


def test_inverse_random():
    rng = random.Random(3)
    for _ in range(50):
        a = random_element(ALG3, rng)
        body = a.body()
        if body == 0:
            a = a + rng.randint(1, 5)
        assert a * a.inverse() == ALG3.one()


# ---------------------------------------------------------------------------
# Berezinian
# ---------------------------------------------------------------------------


def _random_supermatrix(alg, rng, p, q):
    def even():
        return random_element(alg, rng, parity=0)

    def odd():
        return random_element(alg, rng, parity=1)

    A = [[even() for _ in range(p)] for _ in range(p)]
    B = [[odd() for _ in range(q)] for _ in range(p)]
    C = [[odd() for _ in range(p)] for _ in range(q)]
    D = [[even() for _ in range(q)] for _ in range(q)]
    # shift the diagonals so both body determinants are comfortably nonzero
    for i in range(p):
        A[i][i] = A[i][i] + (7 + i)
    for i in range(q):
        D[i][i] = D[i][i] + (7 + i)
    return SuperMatrix.from_blocks(A, B, C, D)


def test_berezinian_identity_and_diagonal():
    one = ALG2.one()
    zero = ALG2.zero()
    I = SuperMatrix.from_blocks([[one]], [[zero]], [[zero]], [[one]])
    assert I.berezinian() == one
    a = ALG2.scalar(6)
    d = ALG2.scalar(3)
    M = SuperMatrix.from_blocks([[a]], [[zero]], [[zero]], [[d]])
    assert M.berezinian() == ALG2.scalar(2)


def test_berezinian_unipotent():
    # [[1, beta], [gamma, 1]] has Ber = 1 - beta gamma
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    one = ALG2.one()
    M = SuperMatrix.from_blocks([[one]], [[th]], [[eta]], [[one]])
    assert M.berezinian() == one - th * eta


def test_berezinian_undefined_body():
    one = ALG2.one()
    zero = ALG2.zero()
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    M = SuperMatrix.from_blocks([[one]], [[th]], [[eta]], [[th * eta]])
    with pytest.raises(ZeroDivisionError):
        M.berezinian()


def test_berezinian_multiplicative_1x1():
    rng = random.Random(4)
    for _ in range(60):
        M = _random_supermatrix(ALG2, rng, 1, 1)
        N = _random_supermatrix(ALG2, rng, 1, 1)
        assert (M * N).berezinian() == M.berezinian() * N.berezinian()


def test_berezinian_multiplicative_2x2():
    rng = random.Random(5)
    for _ in range(25):
        M = _random_supermatrix(ALG2, rng, 2, 2)
        N = _random_supermatrix(ALG2, rng, 2, 2)
        assert (M * N).berezinian() == M.berezinian() * N.berezinian()


def test_berezinian_block_triangular():
    # upper block-triangular: Ber = det(A) det(D)^-1 regardless of B
    rng = random.Random(6)
    for _ in range(20):
        M = _random_supermatrix(ALG2, rng, 2, 2)
        A, B, D = M.block("A"), M.block("B"), M.block("D")
        zero = ALG2.zero()
        C0 = [[zero, zero], [zero, zero]]
        T = SuperMatrix.from_blocks(A, B, C0, D)
        Adet = SuperMatrix.from_blocks(A, [[], []], [], []).berezinian()
        Ddet = SuperMatrix.from_blocks(D, [[], []], [], []).berezinian()
        assert T.berezinian() == Adet * Ddet.inverse()


# ---------------------------------------------------------------------------
# vector fields and the superconformal structure
# ---------------------------------------------------------------------------


def _random_field(alg, rng, parity):
    # coefficient of d/dz has the field's parity, of d/dtheta the opposite
    a = random_element(alg, rng, parity=parity, poly=True)
    b = random_element(alg, rng, parity=1 - parity, poly=True)
    return VectorFieldSC(a, b)


def test_susy_generator_square_is_dz():
    D = superconformal_derivation(ALG1)
    halfDD = susy_generator_square(D)
    f = ALG1.element({(): z ** 3 + 2 * z, (0,): 1 / (z ** 2 + 1)})
    assert halfDD.apply(f) == ALG1.element(
        {(): 3 * z ** 2 + 2, (0,): -2 * z / (z ** 2 + 1) ** 2})
    # and as a field: coefficients (1, 0)
    assert halfDD.a == ALG1.one()
    assert halfDD.b.is_zero()


def test_bracket_antisymmetry_random():
    rng = random.Random(7)
    for _ in range(40):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        X = _random_field(ALG2, rng, px)
        Y = _random_field(ALG2, rng, py)
        sign = -1 if px * py else 1
        XY = X.bracket(Y)
        YX = Y.bracket(X)
        assert XY.a == YX.a * (-sign)
        assert XY.b == YX.b * (-sign)


def test_jacobi_identity_random():
    # (-1)^{|X||Z|}[X,[Y,Z]] + (-1)^{|Y||X|}[Y,[Z,X]] + (-1)^{|Z||Y|}[Z,[X,Y]] = 0
    rng = random.Random(8)
    for _ in range(25):
        ps = [rng.randint(0, 1) for _ in range(3)]
        X, Y, Z_ = [_random_field(ALG2, rng, p) for p in ps]
        t1 = X.bracket(Y.bracket(Z_)).scale(-1 if ps[0] * ps[2] else 1)
        t2 = Y.bracket(Z_.bracket(X)).scale(-1 if ps[1] * ps[0] else 1)
        t3 = Z_.bracket(X.bracket(Y)).scale(-1 if ps[2] * ps[1] else 1)
        total_a = t1.a + t2.a + t3.a
        total_b = t1.b + t2.b + t3.b
        assert total_a.is_zero()
        assert total_b.is_zero()


def test_field_application_leibniz():
    rng = random.Random(9)
    for _ in range(50):
        p = rng.randint(0, 1)
        X = _random_field(ALG2, rng, p)
        f = random_element(ALG2, rng, parity=rng.randint(0, 1), poly=True)
        g = random_element(ALG2, rng, poly=True)
        pf = f.parity()
        if pf is None:
            continue
        sign = -1 if p * pf else 1
        lhs = X.apply(f * g)
        rhs = X.apply(f) * g + (f * X.apply(g)) * sign
        assert lhs == rhs


# ---------------------------------------------------------------------------
# superconformal coordinate changes
# ---------------------------------------------------------------------------


def test_translation_is_superconformal():
    th = ALG1.gen("theta")
    rep = check_superconformal(ALG1.scalar(z + 5), th)
    assert rep.ok
    assert rep.jacobian_body_invertible


def test_theta_scaling_needs_square_one():
    th = ALG1.gen("theta")
    for lam, want in ((1, True), (-1, True), (2, False), (sp.Rational(1, 2), False)):
        rep = check_superconformal(ALG1.scalar(z), th * lam)
        assert rep.ok is want


def test_theta_shift_fails_with_residual():
    # (z, theta + eta): D z - theta' D theta' = theta - (theta + eta) = -eta
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    rep = check_superconformal(ALG2.scalar(z), th + eta)
    assert not rep.ok
    assert rep.residual == -eta


def test_mobius_transition_superconformal():
    phi = z / (1 - z)
    psi = 1 / (1 - z)
    alg = ALG1
    th = alg.gen("theta")
    rep = check_superconformal(alg.scalar(phi), th * psi)
    assert rep.ok


def test_quadratic_change_not_superconformal():
    th = ALG1.gen("theta")
    rep = check_superconformal(ALG1.scalar(z ** 2), th)
    assert not rep.ok
    assert rep.residual == th * (2 * z - 1)


def test_superconformal_with_odd_translation():
    # full family: z' = z + theta eta, theta' = theta + eta is superconformal
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    zp = ALG2.scalar(z) + th * eta
    rep = check_superconformal(zp, th + eta)
    assert rep.ok


def test_parity_validation():
    th = ALG1.gen("theta")
    with pytest.raises(ValueError):
        check_superconformal(th, th)
    with pytest.raises(ValueError):
        check_superconformal(ALG1.scalar(z), ALG1.scalar(z))


@settings(max_examples=30)
@given(st.integers(-5, 5), st.integers(1, 5))
def test_affine_family_superconformal(a, c):
    # z' = c^2 z + a, theta' = c theta is superconformal for any a and c != 0
    th = ALG1.gen("theta")
    rep = check_superconformal(ALG1.scalar(c ** 2 * z + a), th * c)
    assert rep.ok


def test_substitute_round_trip():
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    f = ALG2.element({(): z ** 2, (0,): z, (0, 1): 3})
    g = f.substitute(even_subs={z: ALG2.scalar(z + 1)})
    expect = ALG2.element({(): (z + 1) ** 2, (0,): z + 1, (0, 1): 3})
    assert g == expect
    h = f.substitute(odd_subs={"theta": eta})
    assert h == ALG2.element({(): z ** 2, (1,): z})


def test_even_substitution_with_nilpotent_part():
    # Taylor rule: f(z + theta eta) = f(z) + f'(z) theta eta
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    f = ALG2.element({(): z ** 3})
    g = f.substitute(even_subs={z: ALG2.scalar(z) + th * eta})
    assert g == ALG2.element({(): z ** 3}) + th * eta * (3 * z ** 2)


def test_even_substitution_to_second_order():
    # n = theta eta + 3 xi zeta + theta xi has n^2 = 6 theta eta xi zeta,
    # so f(z + n) takes the f''(z)/2 n^2 term of its Taylor expansion
    alg = GrassmannAlgebra(("theta", "eta", "xi", "zeta"))
    th = alg.gen("theta")
    n = alg.parse("theta*eta + 3*xi*zeta + theta*xi")
    assert n * n == alg.parse("6*theta*eta*xi*zeta")
    w = alg.scalar(z) + n
    f = alg.parse("z**3 + theta*z")
    assert f.substitute(even_subs={"z": w}) == w ** 3 + th * w
    g = alg.parse("1/(z**2 + 1)").substitute(even_subs={z: w})
    assert g == (w ** 2 + 1).inverse()
    assert g * (w ** 2 + 1) == alg.one()


@pytest.mark.parametrize("call", [
    lambda a: a.gen("psi"),
    lambda a: a.one().d_odd("psi"),
    lambda a: check_superconformal(a.scalar(z), a.gen("eta")),
])
def test_a_missing_generator_is_named(call):
    alg = GrassmannAlgebra(("eta",))
    with pytest.raises(ValueError, match=r"'(psi|theta)' is not an odd "
                                         r"generator of the algebra on "
                                         r"\('eta',\)"):
        call(alg)


def test_substitute_names_a_key_that_is_not_a_generator():
    f = ALG2.parse("theta*z")
    with pytest.raises(ValueError, match=r"'psi' is not an odd generator of "
                                         r"the algebra on \('theta', 'eta'\)"):
        f.substitute(odd_subs={"psi": ALG2.gen("eta")})
    with pytest.raises(ValueError, match="the even coordinate is z"):
        f.substitute(even_subs={"w": ALG2.scalar(2)})


def test_substitute_takes_a_rational_scalar_for_z():
    f = ALG2.parse("theta*z + 1/(z + 1)")
    for c in (2, Fraction(-1, 3)):
        assert f.substitute(even_subs={"z": c}) == \
            f.substitute(even_subs={"z": ALG2.scalar(c)})
    assert f.substitute(even_subs={z: 2}) == ALG2.parse("2*theta + 1/3")


@pytest.mark.parametrize("subs, message", [
    ({"odd_subs": {"theta": 2}},
     "odd generator 'theta' must receive an odd element, got 2"),
    ({"odd_subs": {"theta": ALG2.scalar(z)}},
     "odd generator 'theta' must receive an odd element, got (z)"),
    ({"even_subs": {"z": 0.5}},
     "z must receive an even element or a rational scalar, got 0.5"),
    ({"even_subs": {"z": "z + 1"}},
     "z must receive an even element or a rational scalar, got 'z + 1'"),
    ({"even_subs": {"z": ALG2.gen("eta")}},
     "z must receive an even element or a rational scalar, got (1)*eta"),
])
def test_substitute_rejects_a_value_that_is_not_an_element(subs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ALG2.parse("theta*z").substitute(**subs)


# ---------------------------------------------------------------------------
# coefficients in Q(z) and the expression reader
# ---------------------------------------------------------------------------


def test_odd_product_out_of_order_keeps_its_sign():
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    zp = ALG2.parse("z + eta*theta")
    assert zp == ALG2.scalar(z) - th * eta
    assert zp == ALG2.parse("z - theta*eta")
    rep = check_superconformal(zp, ALG2.parse("theta + eta"))
    assert not rep.ok
    assert rep.residual == eta * -2
    assert repr(rep.residual) == "(-2)*eta"


def test_parse_reads_the_grammar_exactly():
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    assert ALG2.parse("0.5*z^2 - (z + 1)/(2*z) + 3*theta*eta") == \
        ALG2.scalar(z ** 2 / 2 - (z + 1) / (2 * z)) + th * eta * 3
    assert ALG2.parse("(theta + eta)**2").is_zero()
    assert ALG2.parse("z**-2*theta") == th * (1 / z ** 2)
    assert ALG2.parse("(1 + theta*eta)**3") == ALG2.one() + th * eta * 3


@pytest.mark.parametrize("text", ["1/theta", "theta/(1+eta)", "z**theta",
                                  "(2*z)**(1/2)", "exp(z)", "a*z", "z/0",
                                  "(1 + theta)**-1", "z**1.0", "theta +",
                                  "z == 1", "2j"])
def test_parse_rejects_what_is_outside_its_scope(text):
    with pytest.raises(ValueError, match="^expression "):
        ALG2.parse(text)


@pytest.mark.parametrize("c", [sp.sin(z), sp.Symbol("a") * z,
                               sp.sqrt(2) * z, sp.Float(0.5), 0.5,
                               z ** sp.Rational(1, 2), sp.exp(z) / z])
def test_coefficient_outside_q_of_z_raises_value_error(c):
    with pytest.raises(ValueError):
        ALG1.scalar(c)


def test_coefficients_are_reduced_rational_functions():
    a = ALG1.scalar((z ** 2 - 1) / (2 * z + 2))
    b = ALG1.scalar("(z - 1)/2")
    assert a == b and repr(a) == repr(b) == "(z/2 - 1/2)"
    assert repr(ALG1.scalar(sp.Rational(-3, 4))) == "(-3/4)"
    assert repr(ALG1.scalar(1 / (1 - z))) == "(-1/(z - 1))"
    with pytest.raises(ZeroDivisionError):
        ALG1.scalar(z) / ALG1.zero()


def test_rational_taylor_substitution():
    # f(z + theta eta) = f(z) + f'(z) theta eta for f = 1/(z + 1)
    th = ALG2.gen("theta")
    eta = ALG2.gen("eta")
    f = ALG2.scalar(1 / (z + 1))
    g = f.substitute(even_subs={z: ALG2.scalar(z) + th * eta})
    assert g == f - th * eta * (1 / (z + 1) ** 2)
    assert f.substitute(even_subs={"z": ALG2.scalar(2)}) == \
        ALG2.scalar(sp.Rational(1, 3))


def test_a_product_of_constants_holds_an_int_when_integral():
    r = (RationalFunction((Fraction(2, 3),))
         * RationalFunction((Fraction(3, 2),)))
    assert r == 1
    assert all(type(c) is int for c in r.num), r.num
    r = RationalFunction((Fraction(2, 3),)) * Fraction(1, 5)
    assert r.num == (Fraction(2, 15),)


def _random_poly(rng, degree, sparse):
    """Rational coefficients, zero with probability 0.6 when sparse."""
    return [Fraction(0) if sparse and rng.random() < 0.6
            else Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 12)))
            for _ in range(degree + 1)]


def test_coefficients_print_as_sympy_cancels_them():
    """The native printer against str(sp.cancel(p/q)), its oracle: seeded
    reduced pairs with and without a denominator, sparse or dense, many
    with negative leading terms or a monomial denominator."""
    rng = random.Random(17)
    with_den = 0
    for _ in range(800):
        p = _random_poly(rng, rng.randint(0, 5), rng.random() < 0.5)
        q = ([Fraction(1)] if rng.random() < 0.3
             else _random_poly(rng, rng.randint(1, 4), rng.random() < 0.5))
        if not any(q):
            continue
        c = RationalFunction(polyq.poly(p), polyq.poly(q))
        with_den += polyq.deg(c.den) > 0
        e = sp.cancel(sum(sp.Rational(a) * z ** i for i, a in enumerate(p))
                      / sum(sp.Rational(b) * z ** i for i, b in enumerate(q)))
        assert str(c) == str(e), (p, q)
    assert with_den > 250
    for e in (1 - z, 2 - z ** 2, -z ** 2 - 1, -z ** 4 + z ** 3, 1 / z,
              1 / z ** 3, -1 / z ** 2, 1 / (2 * z ** 2), z / (3 * z ** 2 + 3),
              (1 - z) / (z + 2), sp.Integer(0), sp.Rational(-1, 4)):
        assert str(ALG1.scalar(e).body()) == str(sp.cancel(e)), e


@pytest.mark.parametrize("other", [None, [1], object(), "theta +", 0.5])
def test_comparison_with_a_foreign_object_is_false(other):
    one = ALG1.one()
    assert (one == other) is False and (one != other) is True
    assert other not in [one, ALG1.gen("theta")]


def test_coefficient_of_a_foreign_type_imports_nothing(monkeypatch):
    import plurisusy.graded_algebra as ga

    def refuse(e):
        raise AssertionError("_from_sympy reached")

    monkeypatch.setattr(ga, "_from_sympy", refuse)
    for c in (None, [1], object(), {1: 2}):
        with pytest.raises(ValueError, match="is not in Q"):
            ALG1.scalar(c)
