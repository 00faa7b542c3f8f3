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
from operator import mul
from typing import List, Optional, Sequence, Tuple

from . import polyq
from .curve import (CurvePoint, Divisor, FunctionFieldElement,
                    HyperellipticCurve)
from .fieldext import Entries, IntRow, QuadExt, int_entries, int_row


class SectionJets:
    """Readers of the value row and the derivative row of one section
    list at sample points (rows).  A row matters only up to what keeps
    every check of verify_embedding: a nonzero factor per row, a nonzero
    constant lam_j per column, and multiplying all sections by one
    function phi with phi(P) != 0, which sends the rows (r0, r1) to
    (phi(P) r0, phi(P) r1 + phi'(P) r0).

    Times phi, the product of the distinct denominators, and lam_j, 1 if
    that leaves integer coefficients and else what clears them, section
    j is At_j + Bt_j y with integer polynomials At_j, Bt_j.  At a finite
    non-branch point P = (x0, y0) off D where no denominator vanishes,
    row 0 is At(x0) + Bt(x0) y0, and row 1 times 2 f(x0) is
    2 f At'(x0) + (2 f Bt'(x0) + f'(x0) Bt(x0)) y0, as y' = f'/(2y):
    integer pairs once scaled as PointFrame says.  Nothing can raise
    there, so an entry is computed only when a check reads it.  At
    infinity (_infinity_rows), at branch points, on D's support and at
    the zeros of a denominator (_taylor_rows) the rows are computed in
    full, and a section not in L(D) at the point raises a ValueError
    naming it."""

    def __init__(self, curve: HyperellipticCurve,
                 sections: Sequence[FunctionFieldElement], D: Divisor,
                 summand: str):
        for j, s in enumerate(sections):
            if s.is_zero():
                raise ValueError(f"model section {j} is zero")
        self.curve, self.D, self.summand = curve, D, summand
        dens = list(dict.fromkeys(s.den for s in sections))
        cofactors = dict.fromkeys(dens, polyq.ONE)  # phi / den
        for d in dens:
            for e in dens:
                if e != d:
                    cofactors[d] = polyq.mul(cofactors[d], e)
        self.A: List[Sequence[int]] = []
        self.B: List[Sequence[int]] = []
        for s in sections:
            q = cofactors[s.den]
            A, B = ((s.A, s.B) if q == polyq.ONE
                    else (polyq.mul(q, s.A), polyq.mul(q, s.B)))
            if not all(type(c) is int for p in (A, B) for c in p):
                A, B = polyq.clear_denominators(A, B)[1]
            self.A.append(A)
            self.B.append(B)
        self.lam_f, (self.F,) = polyq.clear_denominators(curve.f)
        self.dens = polyq.clear_denominators(
            *(d for d in dens if len(d) > 1))[1]
        self.phi_degree = sum(len(d) - 1 for d in self.dens)
        self.degree = max(len(p) - 1 for p in self.A + self.B + self.dens
                          + [self.F])

    def rows(self, P: CurvePoint, frame: Optional["PointFrame"],
             nterms: int) -> Tuple[List[Entries], int]:
        """Readers of rows 0 .. nterms - 1 at P, for nterms 1 or 2, and
        row 0's d; frame is P's, None at infinity.  On the integer path an
        entry is computed when it is first read, and row 0's are kept."""
        if frame is None or not frame.cn or self.D[P] or not all(
                map(frame.ev, self.dens)):
            full = (self._infinity_rows(nterms) if frame is None
                    else self._taylor_rows(P, nterms))
            return [int_entries(r) for r in full], full[0][2]
        ev, cn, cd, d = frame.ev, frame.cn, frame.cd, frame.d
        A, B = self.A, self.B
        row: List[Optional[Tuple[int, int]]] = [None] * len(A)
        bs = row[:]  # Bt_j(x0), set with row[j]

        def r0(j: int) -> Tuple[int, int]:
            if row[j] is None:
                b = bs[j] = ev(B[j])
                u, v = ev(A[j]) * cd, b * cn
                row[j] = (u, v) if d != 1 else (u + v, 0)
            return row[j]

        if nterms == 1:
            return [r0], d
        dev, F2, dF = frame.dev, 2 * frame.fx, frame.dev(self.F)

        def r1(j: int) -> Tuple[int, int]:
            r0(j)  # sets bs[j]
            p = F2 * dev(A[j]) * cd
            q = (F2 * dev(B[j]) + dF * bs[j]) * cn
            return (p, q) if d != 1 else (p + q, 0)

        return [r0, r1], d

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
    ev(p) = b^N p(a/b) and dev(p) = b^N p'(a/b) for integer polynomials p
    of degree at most N, and fx = ev(F) for the curve's F.  On the curve
    u = 0, and each row of SectionJets is homogenised by b^N or b^(2N)
    and times cd, so its entries are integer pairs."""

    __slots__ = ("pw", "dpw", "u", "cn", "cd", "d", "fx")

    def __init__(self, P: CurvePoint, N: int, F: List[int]):
        a, b = P.x.numerator, P.x.denominator
        self.pw = [a ** k * b ** (N - k) for k in range(N + 1)]
        self.dpw = [0] + [k * w for k, w in enumerate(self.pw[:-1], 1)]
        y = P.y
        self.u, c, self.d = ((y.u, y.v, y.d) if isinstance(y, QuadExt)
                             else (0, y, 1))
        self.cn, self.cd = c.numerator, c.denominator
        self.fx = self.ev(F)

    def ev(self, p: Sequence[int]) -> int:
        return sum(map(mul, p, self.pw))

    def dev(self, p: Sequence[int]) -> int:  # k a^(k-1) b^(N-k+1) = dpw[k]
        return sum(map(mul, p, self.dpw))

    def on_curve(self, lam_f: Fraction) -> bool:
        """Whether y^2 = f(x) at P, for f = F / lam_f of degree at most N."""
        return not self.u and (self.cn ** 2 * self.d * self.pw[0]
                               * lam_f.numerator
                               == self.fx * self.cd ** 2
                               * lam_f.denominator)
