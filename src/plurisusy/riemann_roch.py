"""Riemann-Roch spaces, divisor classes, and theta characteristics.

L(D) is computed exactly: after clearing affine denominators the candidate
functions are x^i and x^j y with pole orders at infinity controlled by their
degrees (pole orders of the two kinds never collide, since one is even and
the other odd).  At a branch point the vanishing conditions are
divisibility of the two polynomials (Mumford, Tata Lectures on Theta II,
ch. IIIa), and so is the order both sheets of a fibre off the branch
locus ask alike.  Only the excess of one sheet of a rational fibre over
the other is a remainder condition, (x - x0)^m | A + B v with v the
Taylor window of y there.  Without such rows, as for every divisor of a
theta characteristic's powers, the basis is written down by polynomial
division; otherwise the divisibility conditions join those rows in one
kernel.

Dimensions and linear equivalence need no basis: every divisor is
equivalent to E + n * infinity with E reduced in Cantor's sense, found by
integer bookkeeping when the semi-reduced part has degree at most g and by
Cantor reduction of its Mumford pair otherwise, and h^0(E + n * infinity)
has a closed form.  Explicit bases and principality witnesses still come
from L(D).

The canonical class is (2g-2) * infinity, so h^1(D) = h^0(K - D) by duality
and theta characteristics are square roots of K in the divisor class group.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import polyq
from .curve import (CurvePoint, Divisor, FunctionFieldElement,
                    HyperellipticCurve)
from .linalg import kernel_basis
from .records import frozen


def _require_stable(D: Divisor) -> None:
    if not D.galois_stable():
        raise ValueError("divisor is not stable under conjugation, "
                         "so L(D) is not defined over Q")


def clearing_frame(curve: HyperellipticCurve, D: Divisor
                   ) -> Tuple[Dict[Fraction, int], polyq.Poly, int, int]:
    """Coordinate frame of L(D): (exps, d, n_x, n_y).

    d(x) is the monic product of (x - x0)^exps[x0] over the affine fibres
    of D; it clears every pole D allows, since x - x0 vanishes to order 2
    at a branch point and to order 1 elsewhere.  Each function of L(D) is
    then (p + q y)/d with p spanned by x^i, i < n_x, and q by x^j, j < n_y:
    pole orders at infinity are 2i for x^i and 2j + 2g + 1 for x^j y, and
    these caps are exact by parity."""
    exps: Dict[Fraction, int] = {}
    for P, n in D.items():
        if not P.at_infinity:
            e = (n + 1) // 2 if P.is_branch() else n
            exps[P.x] = max(exps.get(P.x, 0), e)
    d = polyq.from_roots([x0 for x0, e in sorted(exps.items())
                          for _ in range(e)])
    bound = D[curve.infinity()] + 2 * polyq.deg(d)
    n_x = max(0, bound // 2 + 1)
    n_y = max(0, (bound - 2 * curve.genus - 1) // 2 + 1)
    return exps, d, n_x, n_y


def rr_space(curve: HyperellipticCurve, D: Divisor) -> List[FunctionFieldElement]:
    """Basis of L(D) = { h : div(h) + D >= 0 }, built on each call: the
    reduced echelon basis of the kernel in the frame of clearing_frame,
    where a function is (A + B y)/d.

    At a branch point P over r, x - r has order 2 and y order 1, so A and
    B y never cancel, and ord_P(A + B y) >= need = 2 exps[r] - D[P] says
    (x - r)^ceil(need/2) | A and (x - r)^floor(need/2) | B; U_A and U_B
    are the products of these factors.  Off the branch locus a point P
    over x0 asks ord_P(A + B y) >= exps[x0] - D[P], with x - x0 a
    uniformiser.  There 1 and y are a local integral basis (f is
    squarefree), so both sheets vanish to order k exactly when
    (x - x0)^k divides A and B: the smaller demand k of the two sheets
    joins U_A and U_B.  An inert fibre is symmetric, as D is
    Galois-stable.  On a rational fibre the sheet P with the larger demand
    m > k asks (x - x0)^m | A + B v, v = y mod (x - x0)^m; by the CRT these
    excess sheets {P: m} together ask u | A + B v, (u, v) their Mumford pair.

    Without such rows the kernel is U_A | A, U_B | B, and its reduced
    echelon basis is written down (Mumford, Tata Lectures on Theta II,
    ch. IIIa): x^c - (x^c mod U_A) for deg U_A <= c < n_x, then
    (x^c - (x^c mod U_B)) y for deg U_B <= c < n_y.  Otherwise the rows of
    A mod U_A and of B mod U_B join them in kernel_basis, whose reduced
    echelon output does not depend on how the rows are written, so both
    give the same basis.  Each element is brought to normal form by
    dividing out the factors x - r it shares with d."""
    _require_stable(D)
    exps, d, n_x, n_y = clearing_frame(curve, D)
    if D.degree() < 0 or n_x + n_y == 0:
        return []
    roots_A: List[Fraction] = []
    roots_B: List[Fraction] = []
    excess: Dict[CurvePoint, int] = {}
    for x0, P in {P.x: P for P in D.data if not P.at_infinity}.items():
        e = exps[x0]
        if P.is_branch():
            need = 2 * e - D[P]
            roots_A += [x0] * max(0, (need + 1) // 2)
            roots_B += [x0] * max(0, need // 2)
            continue
        Q = P.conjugate()
        if D[Q] < D[P]:
            P, Q = Q, P  # P has the larger demand
        k, m = max(0, e - D[Q]), e - D[P]
        roots_A += [x0] * k
        roots_B += [x0] * k
        if m > k:
            excess[P] = m
    U_A, U_B = polyq.from_roots(roots_A), polyq.from_roots(roots_B)
    if excess:
        u, v = _mumford_pair(curve, excess)
        rows = _remainder_rows(u, n_x, n_y, polyq.ONE, v)
        rows += _remainder_rows(U_A, n_x, n_y, polyq.ONE, polyq.ZERO)
        rows += _remainder_rows(U_B, n_x, n_y, polyq.ZERO, polyq.ONE)
        pairs = [(polyq.poly(v[:n_x]), polyq.poly(v[n_x:]))
                 for v in kernel_basis(rows, n_x + n_y)]
    else:
        pairs = ([(A, polyq.ZERO) for A in _multiples(U_A, n_x)]
                 + [(polyq.ZERO, B) for B in _multiples(U_B, n_y)])
    dens: Dict[Tuple[int, ...], polyq.Poly] = {}

    def normal(A: polyq.Poly, B: polyq.Poly) -> FunctionFieldElement:
        left = []  # the power of each x - r that stays in d
        for r, e in exps.items():
            kA, A1 = polyq.deflate(A, r, e)
            k, B = polyq.deflate(B, r, kA)
            A = A1 if k == kA else polyq.deflate(A, r, k)[1]
            left.append(e - k)
        key = tuple(left)
        if key not in dens:
            dens[key] = polyq.from_roots(
                [r for r, e in zip(exps, left) for _ in range(e)])
        return FunctionFieldElement._normal(curve, A, B, dens[key])

    return [normal(A, B) for A, B in pairs]


def _remainder_rows(U: polyq.Poly, n_x: int, n_y: int, p: polyq.Poly,
                    q: polyq.Poly) -> List[List[Fraction]]:
    """Rows of (A, B) -> (p A + q B) mod U, U monic, on the coefficients
    of A, deg A < n_x, then of B, deg B < n_y: column c of A is
    x^c p mod U, and of B x^c q mod U."""
    cols = list(_times_x_mod(U, p, n_x)) + list(_times_x_mod(U, q, n_y))
    return [list(row) for row in zip(*cols)]


def _multiples(U: polyq.Poly, n: int) -> Iterator[polyq.Poly]:
    """x^c - (x^c mod U) for deg U <= c < n, U monic: the reduced echelon
    basis of its multiples of degree below n."""
    a = polyq.deg(U)
    xa = [-u for u in U[:-1]]  # x^a mod U
    for c, rem in enumerate(_times_x_mod(U, xa, n - a), a):
        yield tuple(-r for r in rem) + (0,) * (c - a) + (1,)


def _times_x_mod(U: polyq.Poly, p: Sequence[Fraction],
                 n: int) -> Iterator[List[Fraction]]:
    """x^c p mod U for 0 <= c < n, U monic and p reduced mod U (of degree
    below deg U, or a constant when U = 1), each as its deg U low
    coefficients.  The remainders follow one another as
    x^(c+1) p mod U = x (x^c p mod U) - top U, with top the coefficient of
    x^(deg U - 1) in x^c p mod U."""
    a = polyq.deg(U)
    rem = [p[i] if i < len(p) else 0 for i in range(a)]
    for _ in range(n):
        yield rem
        if a:
            top = rem[-1]
            rem = [0] + rem[:-1]
            if top:
                rem = [r - top * u for r, u in zip(rem, U)]


def _semi_reduced(D: Divisor) -> Dict[CurvePoint, int]:
    """Effective divisor E on rational finite points with D ~ E + n inf,
    n = deg D - deg E, and no point of E paired with its image under the
    involution iota: P + iota P = div(x - x_P) + 2 inf moves such pairs
    to infinity, -n P becomes n iota P - 2n inf, and a branch point keeps
    its multiplicity mod 2.  On a point with y irrational iota is the
    Galois conjugation, so a stable D leaves nothing of it in E."""
    _require_stable(D)
    E: Dict[CurvePoint, int] = {}
    for P, n in D.data.items():
        if P.at_infinity:
            continue
        if P.y == 0:
            if n % 2:
                E[P] = 1
            continue
        iP = P.conjugate()
        m = n - D[iP]
        if m:
            E[P if m > 0 else iP] = abs(m)
    return E


def semi_reduce(curve: HyperellipticCurve, D: Divisor) -> Divisor:
    """The representative E + (deg D - deg E) inf of the class of D, with
    E the semi-reduced part of D: effective, on rational finite points,
    never holding a point with its image under iota, and each branch
    point at most once."""
    E = _semi_reduced(D)
    return Divisor({**E, curve.infinity(): D.degree() - sum(E.values())})


def _mumford_pair(curve: HyperellipticCurve, E: Dict[CurvePoint, int]
                  ) -> Tuple[polyq.Poly, polyq.Poly]:
    """(u, v) of an effective semi-reduced E on rational points: u is the
    product of (x - x_P)^m and v, of degree below deg u, agrees with y to
    order m at each P, so u divides f - v^2.  Points are added one at a
    time: v + u w matches y at P for w = (y - v)/u mod t^m, t = x - x_P.
    A branch point has m = 1, where only y(P) = 0 enters, whatever the
    local parameter, so w is the constant -v(x_P)/u(x_P)."""
    u, v = polyq.ONE, polyq.ZERO
    for P, m in E.items():
        if P.y == 0:
            w = polyq.poly([Fraction(-polyq.eval_at(v, P.x))
                            / polyq.eval_at(u, P.x)])
        else:
            w = _mumford_step(curve, P, m, u, v)
        v = polyq.add(v, polyq.mul(u, w))
        u = polyq.mul(u, polyq.from_roots([P.x] * m))
    return u, v


def _mumford_step(curve: HyperellipticCurve, P: CurvePoint, m: int,
                  u: polyq.Poly, v: polyq.Poly) -> polyq.Poly:
    """w = (y - v)/u mod t^m at a finite non-branch point P, t = x - x_P.
    With c the Taylor window of y at P (curve._y_window) and U, V the
    Taylor coefficients of u and v, U w = c - V mod t^m is triangular:
    w_n = (c_n - V_n - sum_{i>=1} U_i w_(n-i)) / U_0, as U_0 = u(x_P) != 0."""
    x0 = P.x
    c = curve._y_window(P, m)
    U, V = (list(p) + [0] * (m - len(p))
            for p in (polyq.taylor(u, x0, m), polyq.taylor(v, x0, m)))
    w: List[Fraction] = []
    for n in range(m):
        acc = c[n] - V[n] - sum(U[i] * w[n - i] for i in range(1, n + 1))
        w.append(Fraction(acc) / U[0])
    return polyq.shift(polyq.poly(w), -x0)


def _reduce(curve: HyperellipticCurve, D: Divisor
            ) -> Tuple[int, Union[Dict[CurvePoint, int],
                                  Tuple[polyq.Poly, polyq.Poly]]]:
    """(e, R) with D ~ E + (deg D - e) inf for the reduced divisor E of
    degree e (Cantor 1987).  A semi-reduced divisor of degree at most g
    is already reduced, and R is its points; a longer one is built as a
    Mumford pair (u, v), reduced by u <- monic((f - v^2)/u), v <- -v mod
    u, and R is that pair: E is the zeros (r, v(r)) of u."""
    E = _semi_reduced(D)
    e = sum(E.values())
    if e <= curve.genus:
        return e, E
    u, v = _mumford_pair(curve, E)
    while polyq.deg(u) > curve.genus:
        u = polyq.monic(polyq.exact_div(
            polyq.sub(curve.f, polyq.mul(v, v)), u))
        v = polyq.divmod_(polyq.neg(v), u)[1]
    return polyq.deg(u), (u, v)


def _h0_reduced(g: int, e: int, n: int) -> int:
    """dim L(E + n inf) for a reduced E of degree e, spanned by x^i with
    2i <= n and x^j (y + v)/u with 2j + 2g + 1 - 2e <= n (Mumford, Tata
    Lectures on Theta II, ch. IIIa)."""
    return max(0, n // 2 + 1) + max(0, (n - 2 * g - 1 + 2 * e) // 2 + 1)


def h0(curve: HyperellipticCurve, D: Divisor) -> int:
    """dim L(D) in closed form from the reduced representative of D."""
    e, _ = _reduce(curve, D)
    return _h0_reduced(curve.genus, e, D.degree() - e)


def canonical_divisor(curve: HyperellipticCurve) -> Divisor:
    """(2g-2) * infinity; dx/y has its full divisor at the infinite point."""
    return Divisor({curve.infinity(): 2 * curve.genus - 2})


def h1(curve: HyperellipticCurve, D: Divisor) -> int:
    """h^1(D) = h^0(K - D) by duality."""
    return h0(curve, canonical_divisor(curve) - D)


def is_principal(curve: HyperellipticCurve, D: Divisor
                 ) -> Tuple[bool, Optional[FunctionFieldElement]]:
    """Decide whether D = div(h) for some function; the witness h satisfies
    div(h) = D exactly."""
    if D.degree() != 0 or _reduce(curve, D)[0] != 0:
        return False, None
    basis = rr_space(curve, D)
    if not basis:
        raise RuntimeError("trivial reduced class without a section")
    h = basis[0].inverse()
    if curve.divisor_of(h) != D:
        raise RuntimeError("principality witness has wrong divisor")
    return True, h


def class_eq(curve: HyperellipticCurve, D1: Divisor, D2: Divisor) -> bool:
    """D1 ~ D2: equal degrees and D1 - D2 reduces to the zero divisor."""
    D = D1 - D2
    return D.degree() == 0 and _reduce(curve, D)[0] == 0


class DivisorClass:
    """A divisor class, carried by an explicit representative."""

    __slots__ = ("curve", "rep")

    def __init__(self, curve: HyperellipticCurve, rep: Divisor):
        self.curve = curve
        self.rep = rep

    def degree(self) -> int:
        return self.rep.degree()

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.curve, self.rep + other.rep)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.curve, self.rep - other.rep)

    def __rmul__(self, n: int) -> "DivisorClass":
        return DivisorClass(self.curve, n * self.rep)

    def h0(self) -> int:
        return h0(self.curve, self.rep)

    def h1(self) -> int:
        return h1(self.curve, self.rep)

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return (self.curve == other.curve
                and class_eq(self.curve, self.rep, other.rep))

    def __hash__(self):
        raise TypeError("DivisorClass equality is linear equivalence; not hashable")

    def __repr__(self):
        return f"[{self.rep!r}]"


def canonical_class(curve: HyperellipticCurve) -> DivisorClass:
    return DivisorClass(curve, canonical_divisor(curve))


class ThetaCharacteristic(frozen("ThetaFields", "curve subset roots h0")):
    """A square root of the canonical class, carried by its curve and the
    subset S of the sorted finite branch roots: the class of the sum of
    the branch points over S plus (g - 1 - |S|) * infinity.  `roots` are
    the x-coordinates of those branch points.  The divisor and its class
    are built on each access, so a census makes neither.  On one curve
    distinct subsets of size at most g are distinct classes, so equality
    of the tuple (curve, subset, roots, h0) is equality of classes; a
    theta hashes, and equals no other kind of tuple."""

    __slots__ = ()

    @property
    def divisor(self) -> Divisor:
        C = self.curve
        return Divisor({**{C.branch_point(r): 1 for r in self.roots},
                        C.infinity(): C.genus - 1 - len(self.roots)})

    @property
    def cls(self) -> DivisorClass:
        return DivisorClass(self.curve, self.divisor)

    @property
    def parity(self) -> str:
        return "odd" if self.h0 % 2 else "even"

    @property
    def is_odd(self) -> bool:
        return self.h0 % 2 == 1


def branch_roots(curve: HyperellipticCurve) -> List[Fraction]:
    """Sorted finite branch x-coordinates; requires all of them rational."""
    roots, cof = curve._f_roots()
    if polyq.deg(cof) > 0:
        raise ValueError("all finite branch points must be rational")
    return [r for r, _ in roots]


def _census(curve: HyperellipticCurve) -> Iterator[ThetaCharacteristic]:
    """The theta characteristics in census order (see theta_characteristics).
    Each entry is made by tuple.__new__ from its four fields, in C, which
    is what the namedtuple's own __new__ does after binding arguments."""
    rs, g = branch_roots(curve), curve.genus
    for size in range(g + 1):
        h = _h0_reduced(g, size, g - 1 - size)
        yield from map(tuple.__new__, repeat(ThetaCharacteristic),
                       zip(repeat(curve), combinations(range(len(rs)), size),
                           combinations(rs, size), repeat(h)))


def theta_from_subset(curve: HyperellipticCurve, subset) -> ThetaCharacteristic:
    """The theta of the indices `subset` into branch_roots, each an int."""
    entries = tuple(subset)
    if any(type(i) is not int for i in entries):  # bool is an int too
        raise ValueError(
            f"theta subset must be a list of integers, got {subset!r}")
    rs = branch_roots(curve)
    subset = tuple(sorted(entries))
    g, e = curve.genus, len(subset)
    if len(set(subset)) != e or any(not 0 <= i < len(rs) for i in subset):
        raise ValueError(f"invalid branch-root subset {subset}")
    if e > g:
        raise ValueError("representatives use at most g branch points")
    return ThetaCharacteristic(curve, subset, tuple(rs[i] for i in subset),
                               _h0_reduced(g, e, g - 1 - e))


def theta_characteristics(curve: HyperellipticCurve) -> List[ThetaCharacteristic]:
    """All 2^(2g) theta characteristics, for curves whose finite branch
    points are all rational, by subset size, then lexicographically.  At
    most g distinct branch points form a reduced divisor, so h0 of
    S + (g - 1 - |S|) inf is the closed form at e = |S|: no reduction."""
    out = list(_census(curve))
    if len(out) != 2 ** (2 * curve.genus):
        raise RuntimeError("census size mismatch")
    return out


def parity_representatives(curve: HyperellipticCurve
                           ) -> Tuple[ThetaCharacteristic, ThetaCharacteristic]:
    """First theta characteristic with h0 = 0 and first with h0 odd, in
    census order.  Parity alone does not pin down h0: for g >= 3 the class
    of g-1 infinite points is even with h0 = 2 (it contains the degree-2
    pencil), and the dimensional statements quantified over "even" thetas
    assume the generic case h0 = 0.

    Subsets of size below g give effective divisors (h0 >= 1), and every
    size-g subset has h0 = 0 (a section would need its denominator to
    divide out of its numerator), so the first h0 = 0 class is the one on
    the first g roots; it is built directly rather than scanned for."""
    even = theta_from_subset(curve, tuple(range(curve.genus)))
    if even.h0 != 0:
        raise RuntimeError("size-g subset with unexpected sections")
    for t in _census(curve):
        if t.is_odd:
            return even, t
    raise RuntimeError("no odd theta characteristic found")
