"""Split super Riemann surfaces C_L and their split-level invariants.

A split supercurve is a classical hyperelliptic curve C together with a
degree-(g-1) divisor class L; it carries a superconformal (susy) structure
exactly when 2L ~ K, i.e. when L is a theta characteristic.  The Berezinian
line bundle of such a curve restricts to L on the underlying curve, duality
acts on classes by L -> K - L (so susy curves are precisely the self-dual
ones), and the super moduli dimensions are (3g-3 | 2g-2).
"""

from __future__ import annotations

from .curve import Divisor, HyperellipticCurve, standard_curve
from .records import frozen
from .riemann_roch import (DivisorClass, ThetaCharacteristic, canonical_class,
                           class_eq, h0, parity_representatives)


class RankPair(frozen("RankPair", "even odd")):
    """Rank of a graded module, rendered 'even|odd'."""

    __slots__ = ()

    def __add__(self, other: "RankPair") -> "RankPair":
        return RankPair(self.even + other.even, self.odd + other.odd)

    def __le__(self, other: "RankPair") -> bool:
        return self.even <= other.even and self.odd <= other.odd

    def __str__(self):
        return f"{self.even}|{self.odd}"

    def __repr__(self):
        return f"RankPair({self.even}|{self.odd})"


class SplitSupercurve:
    """The pair C_L: curve plus a degree-(g-1) class, with the susy flag
    decided by the 2L ~ K test."""

    __slots__ = ("curve", "L", "susy")

    def __init__(self, curve: HyperellipticCurve, L: DivisorClass):
        if L.degree() != curve.genus - 1:
            raise ValueError(
                f"L must have degree g-1 = {curve.genus - 1}, got {L.degree()}")
        self.curve = curve
        self.L = L
        K = canonical_class(curve)
        self.susy = class_eq(curve, 2 * L.rep, K.rep)

    @property
    def genus(self) -> int:
        return self.curve.genus

    def __repr__(self):
        tag = "susy" if self.susy else "non-susy"
        return f"SplitSupercurve({self.curve!r}, L={self.L!r}, {tag})"


def make_split_supercurve(curve: HyperellipticCurve, L) -> SplitSupercurve:
    """Build C_L from a DivisorClass, Divisor, or ThetaCharacteristic."""
    if isinstance(L, ThetaCharacteristic):
        L = L.cls
    if isinstance(L, Divisor):
        L = DivisorClass(curve, L)
    return SplitSupercurve(curve, L)


def berezinian_bundle(X: SplitSupercurve) -> DivisorClass:
    """Class of the Berezinian line bundle restricted to the curve: L itself
    (the bundle has rank 0|1, so its powers alternate parity)."""
    return X.L


def dual_supercurve(X: SplitSupercurve) -> SplitSupercurve:
    """Split-level duality: C_L -> C_{K-L}; degree g-1 is preserved."""
    K = canonical_class(X.curve)
    return SplitSupercurve(X.curve, K - X.L)


def is_autodual(X: SplitSupercurve) -> bool:
    """True iff L ~ K - L, which is the susy condition 2L ~ K that the
    constructor has already decided."""
    return X.susy


class TransitionReport(frozen("TransitionReport", "superconformal "
                              "d_factor_ok berezinian_ok residual")):
    """Outcome of the two-chart transition verification: the change
    (z, theta) -> (phi(z), psi(z) theta) is superconformal iff phi' = psi^2,
    and then D picks up the factor psi^(-1) while the Berezinian of the
    super-Jacobian is psi."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.superconformal and self.d_factor_ok and self.berezinian_ok


def verify_berezinian_transition(phi, psi) -> TransitionReport:
    """Check the split transition z' = phi(z), theta' = psi(z) theta.

    Verifies (a) superconformality D z' = theta' D theta'; (b) the cocycle
    identities D theta' = psi and D z' = theta' psi, so D transforms by
    psi^(-1) and the dual of D by psi; (c) the Berezinian of the
    super-Jacobian equals psi.  All checks are exact; phi and psi are
    elements of Q(z), given as the `graded_algebra` coefficients are (a
    string is read by `GrassmannAlgebra.parse`).
    """
    from .graded_algebra import (ODD, GrassmannAlgebra, SuperMatrix,
                                 check_superconformal,
                                 superconformal_derivation)

    alg = GrassmannAlgebra((ODD,))
    theta = alg.gen(ODD)
    zp, psi = alg.scalar(phi), alg.scalar(psi)
    tp = theta * psi

    sc = check_superconformal(zp, tp)

    D = superconformal_derivation(alg)
    d_tp = D.apply(tp)
    d_zp = D.apply(zp)
    d_factor_ok = (d_tp == psi) and (d_zp == tp * psi)

    # super-Jacobian in block form [[dz'/dz, dtheta'/dz], [dz'/dtheta, dtheta'/dtheta]]
    A = [[zp.d_even()]]
    B = [[tp.d_even()]]
    C = [[zp.d_odd(ODD)]]
    Dblk = [[tp.d_odd(ODD)]]
    ber = SuperMatrix.from_blocks(A, B, C, Dblk).berezinian()
    ber_ok = ber == psi

    return TransitionReport(sc.ok, d_factor_ok, ber_ok, sc.residual)


def moduli_dimension(g: int) -> RankPair:
    """Super moduli dimension (3g-3 | 2g-2) at genus g, computed as
    cohomology on an explicit model: even part h^1(-K) = h^0(2K), odd part
    h^1(-L) = h^0(K + L) for an even theta characteristic L."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    curve = standard_curve(g)
    K = canonical_class(curve).rep
    even_theta, _odd = parity_representatives(curve)
    L = even_theta.divisor
    even = h0(curve, K + K)
    odd = h0(curve, K + L)
    return RankPair(even, odd)


class DeformationReport(frozen("DeformationReport", "h1_superconformal "
                               "h1_tangent injection_possible")):
    """Graded H^1 dimensions of the superconformal deformation sheaf against
    the full tangent sheaf of the split 1|1 manifold, and whether the
    componentwise inequality required for an injection holds."""

    __slots__ = ()


def deformation_injectivity_dims(g: int) -> DeformationReport:
    if g < 2:
        raise ValueError("genus must be at least 2")
    curve = standard_curve(g)
    K = canonical_class(curve).rep
    even_theta, _odd = parity_representatives(curve)
    L = even_theta.divisor
    # h^1(-K) = h^0(2K); h^1(-L) = h^0(K+L); h^1(-K+L) = h^0(2K-L)
    s = RankPair(h0(curve, K + K), h0(curve, K + L))
    t = RankPair(h0(curve, K + K), h0(curve, K + K - L))
    return DeformationReport(s, t, s <= t)
