"""Value and derivative rows of lists of functions at curve points.

A row lists the functions' Laurent coefficients at one power of the local
parameter, in the trivialization of a D-twisted bundle.  `SectionJets`
gives these rows up to what a rank test ignores, by polynomial
arithmetic alone: in integers at almost every finite point, as
polynomial coefficients at infinity and the branch points, and as Taylor
coefficients against the Taylor window of y at the other finite points.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

from . import polyq
from .curve import (CurvePoint, Divisor, FunctionFieldElement,
                    HyperellipticCurve)
from .fieldext import IntRow, QuadExt, int_row, int_rows_dependent


class SectionJets:
    """The value row and the derivative row of one section list at
    sample points, as IntRows, or as much of them as a check of
    verify_embedding needs (value_and_tangent, vanishes).  A row matters
    only up to what keeps every check: a nonzero factor per row, a
    nonzero constant lam_j per column, and multiplying all sections by one
    function phi with phi(P) != 0, which sends the rows (r0, r1) to
    (phi(P) r0, phi(P) r1 + phi'(P) r0).

    With phi the product of the distinct denominators and lam_j clearing
    denominators, section j becomes At_j + Bt_j y for integer polynomials
    At_j, Bt_j.  At a finite non-branch point P = (x0, y0) off D where no
    denominator vanishes, row 0 is At(x0) + Bt(x0) y0, and row 1 times
    2 f(x0) is 2 f At'(x0) + (2 f Bt'(x0) + f'(x0) Bt(x0)) y0, as
    y' = f'/(2y): integer pairs once scaled as PointFrame says.  Nothing
    can raise there, so entries are computed only until a check's verdict
    is settled; elsewhere the rows are computed in full.  At infinity,
    where At and Bt y never cancel, each row is one coefficient of At or
    of Bt (_infinity_rows).  At the other finite points, branch
    points, D's support and the zeros of a denominator, the rows are
    Taylor coefficients at x0 (_taylor_rows): of At and Bt interleaved by
    parity at a branch point, and of At + Bt v, with v the Taylor window
    of y, elsewhere.  A section that is not in L(D) at the point raises a
    ValueError naming it."""

    def __init__(self, curve: HyperellipticCurve,
                 sections: Sequence[FunctionFieldElement], D: Divisor,
                 summand: str):
        for j, s in enumerate(sections):
            if s.is_zero():
                raise ValueError(f"model section {j} is zero")
        self.curve, self.D = curve, D
        self.summand = summand
        dens = list(dict.fromkeys(s.den for s in sections))
        cofactors = {}  # phi / den for phi the product of the distinct dens
        for d in dens:
            q = polyq.ONE
            for e in dens:
                if e != d:
                    q = polyq.mul(q, e)
            cofactors[d] = q
        self.A: List[List[int]] = []
        self.B: List[List[int]] = []
        for s in sections:
            q = cofactors[s.den]
            A, B = ((s.A, s.B) if q == polyq.ONE
                    else (polyq.mul(q, s.A), polyq.mul(q, s.B)))
            _, (At, Bt) = polyq.clear_denominators(A, B)
            self.A.append(At)
            self.B.append(Bt)
        self.dA = [polyq.int_derivative(p) for p in self.A]
        self.dB = [polyq.int_derivative(p) for p in self.B]
        self.lam_f, (self.F,) = polyq.clear_denominators(curve.f)
        self.dF = polyq.int_derivative(self.F)
        self.dens = polyq.clear_denominators(
            *(d for d in dens if len(d) > 1))[1]
        self.phi_degree = sum(len(d) - 1 for d in self.dens)
        self.degree = max(len(p) - 1 for p in self.A + self.B + self.dens
                          + [self.F])

    def _full_rows(self, P: CurvePoint, frame: Optional["PointFrame"],
                   nterms: int) -> Optional[List[IntRow]]:
        """Rows 0 .. nterms - 1 at P, or None on the integer path; frame
        is P's, None at infinity."""
        if P.at_infinity:
            return self._infinity_rows(nterms)
        if P.y == 0 or self.D[P] or not all(map(frame.ev, self.dens)):
            return self._taylor_rows(P, nterms)
        return None

    def value_and_tangent(self, P: CurvePoint,
                          frame: Optional["PointFrame"]
                          ) -> Tuple[IntRow, bool]:
        """Row 0 at P, and whether rows 0 and 1 are independent."""
        rows = self._full_rows(P, frame, 2)
        if rows is not None:
            r0, (us1, vs1, _) = rows
            return r0, not int_rows_dependent(
                r0, lambda j: (us1[j], vs1[j] if vs1 else 0))
        ev, cn, cd, d = frame.ev, frame.cn, frame.cd, frame.d
        us = [ev(p) * cd for p in self.A]
        vB = list(map(ev, self.B))
        vs = [v * cn for v in vB]
        r0 = (us, vs, d) if d != 1 else (list(map(add, us, vs)), None, 1)
        F2, dF = 2 * frame.fx, ev(self.dF)

        def r1(j: int) -> Tuple[int, int]:
            p = F2 * ev(self.dA[j]) * cd
            q = (F2 * ev(self.dB[j]) + dF * vB[j]) * cn
            return (p, q) if d != 1 else (p + q, 0)

        return r0, not int_rows_dependent(r0, r1)

    def vanishes(self, P: CurvePoint, frame: Optional["PointFrame"]) -> bool:
        """Whether row 0 at P is zero; in integers with d != 1 its entry
        u cd + v cn sqrt d is zero exactly when u = v = 0."""
        rows = self._full_rows(P, frame, 1)
        if rows is not None:
            (us, vs, _), = rows
            return not (any(us) or vs and any(vs))
        ev, cn, cd = frame.ev, frame.cn, frame.cd
        return not any(ev(a) * cd + ev(b) * cn if frame.d == 1
                       else ev(a) or ev(b) for a, b in zip(self.A, self.B))

    def _pole_past_D(self, j: int, P: CurvePoint) -> ValueError:
        return ValueError(f"{self.summand} section {j} has a pole past its "
                          f"cleared divisor at {P!r}")

    def _infinity_rows(self, nterms: int) -> List[IntRow]:
        """The rows at infinity, where no section may have a pole past D.
        Times phi, whose expansion in t has even orders only,
        the rows sit at orders -m, -m + 1 of At + Bt y, with
        m = D[inf] + 2 deg phi; there x^i has order -2i, and x^k y order
        -(2k + 2g + 1) with leading coefficient sqrt(lc f), a factor of
        the whole row.  As no section has a pole past order m, the odd
        row is the coefficients of x^k in Bt and the even row those of
        x^i in At."""
        g1 = 2 * self.curve.genus + 1
        m = self.D[self.curve.infinity()] + 2 * self.phi_degree
        for j, (a, b) in enumerate(zip(self.A, self.B)):
            if a and 2 * len(a) - 2 > m or b and 2 * len(b) - 2 + g1 > m:
                raise self._pole_past_D(j, self.curve.infinity())
        rows = []
        for pole in range(m, m - nterms, -1):
            i, polys = ((pole - g1) // 2, self.B) if pole % 2 else (
                pole // 2, self.A)
            rows.append(([p[i] if 0 <= i < len(p) else 0 for p in polys],
                         None, 1))
        return rows

    def _taylor_rows(self, P: CurvePoint, nterms: int) -> List[IntRow]:
        """The rows at a finite point P = (x0, y0) that is a branch point,
        in D's support or a zero of a denominator, where no section may
        have a pole past D.  Times phi, of order e delta with
        delta = mult_x0(phi), e = 2 at a branch point and 1 elsewhere, and
        a unit factor that a rank test ignores, the rows sit at orders
        o = e delta - D[P] .. o + nterms - 1 of At + Bt y; every
        coefficient below o vanishes exactly when each section lies in
        L(D) at P, and rows at negative orders are zero.  At a branch
        point t = y and x - x0 = t^2 u(t^2), so the Taylor coefficient of
        (x - x0)^i in At has order 2i and in Bt order 2i + 1, each up to
        the factor u(0)^i of the whole row: the windows of At and Bt
        interleave by parity.  Elsewhere t = x - x0 and y = v(t), the
        Taylor window of y (HyperellipticCurve._y_window), and the
        column is the window of At + Bt v."""
        x0, branch = P.x, P.y == 0
        e = 2 if branch else 1
        o = e * sum(polyq.mult_at(d, x0) for d in self.dens) - self.D[P]
        top = max(0, o + nterms)
        n = (top + 1) // 2 if branch else top
        if not branch:
            v = self.curve._y_window(P, top)
        cols = []
        for j, (a, b) in enumerate(zip(self.A, self.B)):
            tA, tB = (polyq.taylor(p, x0, n) for p in (a, b))
            tA, tB = (list(t) + [0] * (n - len(t)) for t in (tA, tB))
            if branch:
                col = [c for pair in zip(tA, tB) for c in pair][:top]
            else:
                col = [tA[k] + sum(tB[i] * v[k - i] for i in range(k + 1))
                       for k in range(top)]
            if any(col[:max(0, o)]):
                raise self._pole_past_D(j, P)
            cols.append(col)
        return [int_row([c[k] if k >= 0 else 0 for c in cols])
                for k in range(o, o + nterms)]


class PointFrame:
    """A finite point P = (a/b, u + (cn/cd) sqrt d) as integers, with
    ev(p) = b^N p(a/b) for integer polynomials p of degree at most N, and
    fx = ev(F) for the curve's F.  On the curve u = 0, and each row of
    SectionJets is homogenised by b^N or b^(2N) and times cd, so its
    entries are integer pairs."""

    __slots__ = ("pw", "u", "cn", "cd", "d", "fx")

    def __init__(self, P: CurvePoint, N: int, F: List[int]):
        a, b = P.x.numerator, P.x.denominator
        apow, bpow = [1], [1]
        for _ in range(N):
            apow.append(apow[-1] * a)
            bpow.append(bpow[-1] * b)
        self.pw = [apow[k] * bpow[N - k] for k in range(N + 1)]
        y = P.y
        self.u, c, self.d = ((y.u, y.v, y.d) if isinstance(y, QuadExt)
                             else (0, y, 1))
        self.cn, self.cd = c.numerator, c.denominator
        self.fx = self.ev(F)

    def ev(self, p: List[int]) -> int:
        return sum(map(mul, p, self.pw))

    def on_curve(self, lam_f: Fraction) -> bool:
        """Whether y^2 = f(x) at P, for f = F / lam_f of degree at most N."""
        return not self.u and (self.cn ** 2 * self.d * self.pw[0]
                               * lam_f.numerator
                               == self.fx * self.cd ** 2
                               * lam_f.denominator)
