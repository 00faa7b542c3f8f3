"""Value and derivative rows of lists of functions at curve points.

A row lists the functions' Laurent coefficients at one power of the local
parameter, in the trivialization of a D-twisted bundle.  `jet_rows` reads
them from `HyperellipticCurve.laurent_at` at any point.  `SectionJets`
gives the same rows up to what a rank test ignores, and at almost every
finite point builds them in integers, without a series.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence

from . import polyq
from .curve import (CurvePoint, Divisor, FunctionFieldElement,
                    HyperellipticCurve)
from .fieldext import IntRow, QuadExt, int_row


def jet_rows(curve: HyperellipticCurve,
             sections: Sequence[FunctionFieldElement], D: Divisor,
             P: CurvePoint, nterms: int) -> List[List]:
    """Laurent coefficient rows of the sections at P in the local
    trivialization of the D-twisted bundle: row k lists the t^(m+k)
    coefficients with m = -D[P], so the fiber evaluation is row 0."""
    m = -D[P]
    rows: List[List] = [[] for _ in range(nterms)]
    for s in sections:
        q = curve.laurent_at(s, P, nterms=nterms)
        for k in range(nterms):
            rows[k].append(q.coeff(m + k))
    return rows


class SectionJets:
    """The value row, and with nterms = 2 the derivative row, of one section
    list at sample points, as IntRows.  A row matters only up to what
    keeps every check of verify_embedding: a nonzero factor per row, a
    nonzero constant lam_j per column, and multiplying all sections by one
    function phi with phi(P) != 0, which sends the rows (r0, r1) to
    (phi(P) r0, phi(P) r1 + phi'(P) r0).

    With phi the product of the distinct denominators and lam_j clearing
    denominators, section j becomes At_j + Bt_j y for integer polynomials
    At_j, Bt_j.  At a finite non-branch point P = (x0, y0) off D where no
    denominator vanishes, row 0 is At(x0) + Bt(x0) y0, and row 1 times
    2 f(x0) is 2 f At'(x0) + (2 f Bt'(x0) + f'(x0) Bt(x0)) y0, as
    y' = f'/(2y): integer pairs once scaled as PointFrame says.  At every
    other point the rows are the Laurent rows of jet_rows, with column j
    times the same lam_j."""

    def __init__(self, curve: HyperellipticCurve,
                 sections: Sequence[FunctionFieldElement], D: Divisor,
                 nterms: int):
        for j, s in enumerate(sections):
            if s.is_zero():
                raise ValueError(f"model section {j} is zero")
        self.curve, self.sections, self.D = curve, sections, D
        self.nterms = nterms
        dens = list(dict.fromkeys(s.den for s in sections))
        cofactors = {}  # phi / den for phi the product of the distinct dens
        for d in dens:
            q = polyq.ONE
            for e in dens:
                if e != d:
                    q = polyq.mul(q, e)
            cofactors[d] = q
        self.lam: List[Fraction] = []
        self.A: List[List[int]] = []
        self.B: List[List[int]] = []
        for s in sections:
            q = cofactors[s.den]
            A, B = ((s.A, s.B) if q == polyq.ONE
                    else (polyq.mul(q, s.A), polyq.mul(q, s.B)))
            lam, (At, Bt) = polyq.clear_denominators(A, B)
            self.lam.append(lam)
            self.A.append(At)
            self.B.append(Bt)
        self.dA = [polyq.int_derivative(p) for p in self.A]
        self.dB = [polyq.int_derivative(p) for p in self.B]
        self.lam_f, (self.F,) = polyq.clear_denominators(curve.f)
        self.dF = polyq.int_derivative(self.F)
        self.dens = polyq.clear_denominators(
            *(d for d in dens if len(d) > 1))[1]
        self.degree = max(len(p) - 1 for p in self.A + self.B + self.dens
                          + [self.F])

    def rows(self, P: CurvePoint,
             frame: Optional["PointFrame"]) -> List[IntRow]:
        """Rows 0 .. nterms - 1 at P; frame is P's, None at infinity."""
        if frame is None or P.y == 0 or self.D[P]:
            return self._laurent_rows(P)
        ev = frame.ev
        if not all(map(ev, self.dens)):
            return self._laurent_rows(P)
        cn, cd, d = frame.cn, frame.cd, frame.d
        vA, vB = list(map(ev, self.A)), list(map(ev, self.B))
        rows = [([u * cd for u in vA], [v * cn for v in vB])]
        if self.nterms > 1:
            F2, dF = 2 * ev(self.F), ev(self.dF)
            rows.append(([F2 * ev(p) * cd for p in self.dA],
                         [(F2 * ev(p) + dF * v) * cn
                          for p, v in zip(self.dB, vB)]))
        if d == 1:
            return [([u + v for u, v in zip(us, vs)], None, 1)
                    for us, vs in rows]
        return [(us, vs, d) for us, vs in rows]

    def _laurent_rows(self, P: CurvePoint) -> List[IntRow]:
        rows = jet_rows(self.curve, self.sections, self.D, P, self.nterms)
        return [int_row(r, self.lam) for r in rows]


class PointFrame:
    """A finite point P = (a/b, u + (cn/cd) sqrt d) as integers, with
    ev(p) = b^N p(a/b) for integer polynomials p of degree at most N.  On
    the curve u = 0, and each row of SectionJets.rows is homogenised by
    b^N or b^(2N) and times cd, so its entries are integer pairs."""

    __slots__ = ("pw", "u", "cn", "cd", "d")

    def __init__(self, P: CurvePoint, N: int):
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

    def ev(self, p: List[int]) -> int:
        return sum(map(mul, p, self.pw))

    def on_curve(self, lam_f: Fraction, F: List[int]) -> bool:
        """Whether y^2 = f(x) at P, for f = F / lam_f of degree at most N."""
        return not self.u and (self.cn ** 2 * self.d * self.pw[0]
                               * lam_f.numerator
                               == self.ev(F) * self.cd ** 2
                               * lam_f.denominator)
