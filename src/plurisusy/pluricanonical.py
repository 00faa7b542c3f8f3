"""Powers of the Berezinian bundle on a split supercurve.

The direct image of the nu-th power splits into the section spaces of
L^nu and L^(nu+1) on the underlying curve; everything here is exact
linear algebra on those spaces: rank pairs, very-ampleness with explicit
witness pairs, projective models and their separation checks, and the
section module of a first-order deformation over a 0|1-dimensional base.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import polyq
from .curve import (CurvePoint, Divisor, FunctionFieldElement,
                    HyperellipticCurve, standard_curve)
from .fieldext import anchor, int_rows_dependent, row_classes
from .linalg import ColumnSpace
from .records import frozen
from .riemann_roch import (DivisorClass, ThetaCharacteristic, _reduce,
                           canonical_divisor, class_eq, h0,
                           parity_representatives, rr_space, semi_reduce)
from .supercurve import RankPair, SplitSupercurve, make_split_supercurve


def _power_divisor(X: SplitSupercurve, k: int) -> Divisor:
    return semi_reduce(X.curve, k * X.L.rep)


def summand_powers(nu: int) -> Tuple[int, int]:
    """(k_even, k_odd): the powers of L whose sections make up the even
    and the odd summand of the nu-th Berezinian power.  L^nu carries the
    parity of nu, since the bundle itself is odd."""
    return (nu, nu + 1) if nu % 2 == 0 else (nu + 1, nu)


class RankReport(frozen("RankReport", "nu rank hypotheses_hold formula note",
                        defaults=("",))):
    """Rank pair of the direct image, with the hypothesis flag and the
    closed-form pair printed alongside it."""

    __slots__ = ()

    @property
    def formula_differs(self) -> bool:
        return self.formula != self.rank

    def __str__(self):
        if self.note:
            return f"{self.rank} ({self.note})"
        if self.formula_differs:
            return f"{self.rank} (alt formula: {self.formula}; differs)"
        return str(self.rank)

    def to_json(self) -> Dict:
        return {
            "nu": self.nu,
            "rank": str(self.rank),
            "even": self.rank.even,
            "odd": self.rank.odd,
            "hypotheses_hold": self.hypotheses_hold,
            "alt_formula": str(self.formula),
            "alt_formula_differs": self.formula_differs,
            "note": self.note,
        }


def pluri_canonical_rank(X: SplitSupercurve, nu: int) -> RankReport:
    """Rank pair of the direct image of the nu-th Berezinian power.

    The two graded pieces are the section spaces of L^nu and L^(nu+1);
    the L^nu piece carries the parity of nu since the bundle itself is
    odd.  When h1 of both summands vanishes (for every nu >= 3, by degree,
    and for no nu <= 2 on a susy curve, where h1(L^2) = 1) the pair is
    base-independent and is ordered by that parity.  Otherwise the
    hypotheses fail and the returned pair is the literal section count
    over a point, in summand order h0(L^nu) | h0(L^(nu+1)).

    `formula` is the closed-form pair with (nu-1)g - nu + 1 in the L^nu
    slot and (2nu-1)g - 2nu + 1 in the L^(nu+1) slot; the second entry
    disagrees with the computed value for every nu >= 2.
    """
    return _certified_rank(X, nu)[0]


def _certified_rank(X: SplitSupercurve, nu: int
                    ) -> Tuple[RankReport, FreenessCertificate]:
    """pluri_canonical_rank with the certificate it rests on, whose
    h1_E and h1_EL belong to the powers nu and nu + 1.

    The certificate is criterion_local_freeness(X, nu L), read off the
    degrees with no divisor built.  L^k has degree d_k = k(g - 1) and
    Euler characteristic chi_k = d_k - g + 1, so h1(L^k) = h0(L^k) - chi_k
    by Riemann-Roch, and h0(L^k) is chi_k for k >= 3 (d_k > 2g - 2), g or
    g - 1 at k = 2 as 2L ~ K or not (the susy flag), and h0(L), the one
    reduction left, at k = 1."""
    if nu < 1:
        raise ValueError("nu must be at least 1")
    g = X.genus

    def chi(k: int) -> int:
        return k * (g - 1) - g + 1

    def h0_power(k: int) -> int:
        if k == 1:
            return h0(X.curve, X.L.rep)
        if k == 2:
            return g if X.susy else g - 1
        return chi(k)

    h0_E, h0_EL = h0_power(nu), h0_power(nu + 1)
    h1_E, h1_EL = h0_E - chi(nu), h0_EL - chi(nu + 1)
    passed = h1_E == 0 and h1_EL == 0
    k_even, k_odd = summand_powers(nu)
    h0_k = {nu: h0_E, nu + 1: h0_EL}
    cert = FreenessCertificate(h0_E, h0_EL, h1_E, h1_EL,
                               RankPair(h0_k[k_even], h0_k[k_odd]), passed)
    alt = {nu: (nu - 1) * g - nu + 1, nu + 1: (2 * nu - 1) * g - 2 * nu + 1}
    formula = RankPair(alt[k_even], alt[k_odd])
    if passed:
        return RankReport(nu, cert.rank, True, formula), cert
    return RankReport(nu, RankPair(h0_E, h0_EL), False, formula,
                      note="hypotheses fail; point-base value"), cert


class FreenessCertificate(frozen("FreenessCertificate",
                                 "h0_E h0_EL h1_E h1_EL rank passed")):
    """The four cohomology numbers behind a local-freeness decision."""

    __slots__ = ()


def criterion_local_freeness(X: SplitSupercurve, E_class: DivisorClass,
                             E_parity: str = "even") -> FreenessCertificate:
    """Local-freeness test for the direct image of an arbitrary class E
    on the underlying curve (the susy structure never enters): both h1(E)
    and h1(E + L) must vanish.  The rank pair is h0(E) | h0(E + L) when E
    is declared even, swapped when odd.

    This is the general test, for any E: each h0 is a reduction and each
    h1 the h0 of K minus the class, by Serre duality.  For E = nu L it is
    the reference that the degree-read certificate of
    pluri_canonical_rank is tested against."""
    if E_parity not in ("even", "odd"):
        raise ValueError("E_parity must be 'even' or 'odd'")
    curve = X.curve
    K = canonical_divisor(curve)
    E = E_class.rep
    EL = E + X.L.rep
    h0_E = h0(curve, E)
    h0_EL = h0(curve, EL)
    h1_E = h0(curve, K - E)
    h1_EL = h0(curve, K - EL)
    passed = h1_E == 0 and h1_EL == 0
    if E_parity == "even":
        rank = RankPair(h0_E, h0_EL)
    else:
        rank = RankPair(h0_EL, h0_E)
    return FreenessCertificate(h0_E, h0_EL, h1_E, h1_EL, rank, passed)


class VeryAmpleReport(frozen("VeryAmpleReport", "nu passed condition1_ok "
                             "condition2_ok witness note", defaults=("",))):
    __slots__ = ()


def witness_str(witness: Optional[Tuple[CurvePoint, CurvePoint]]) -> str:
    """Witness pair as "x=P, y=Q", or "x=y=P" for a tangent witness."""
    if witness is None:
        return ""
    P, Q = witness
    if P == Q:
        return f"x=y={P!r}"
    return f"x={P!r}, y={Q!r}"


def _effective_points(curve: HyperellipticCurve, rep: Divisor
                      ) -> Optional[Tuple[List[CurvePoint], polyq.Poly]]:
    """The effective divisor E + n inf of the class of rep, with E
    reduced, or None when n < 0 and the class has no sections.  It is
    returned as (points, rest): the points with rational x-coordinates,
    with multiplicity and infinity last, and the factor of the Mumford u
    of E that has no rational root (ONE when the points are all of it)."""
    e, R = _reduce(curve, rep)
    n = rep.degree() - e
    if n < 0:
        return None
    E, rest = R, polyq.ONE
    if not isinstance(R, dict):
        u, v = R
        roots, rest = polyq.rational_roots(u)
        E = {curve.point(r, polyq.eval_at(v, r)): m for r, m in roots}
    T = Divisor(E) + Divisor.of_point(curve.infinity(), n)
    if polyq.deg(rest) == 0 and not class_eq(curve, T, rep):
        raise RuntimeError("reduced divisor is not in the class")
    return [P for P, m in T.items() for _ in range(m)], rest


def _residual_points(X: SplitSupercurve, m: int, npoints: int
                     ) -> Optional[Tuple[List[CurvePoint], polyq.Poly]]:
    """Points x_1..x_npoints with K - L^m + x_1 + ... + x_npoints
    effective, as _effective_points gives them, or None when there are
    none.

    The residual degree d decides: for d < 0 there are none; for d = 0
    they are the points of an effective divisor in L^m - K; for d = 1 at
    genus 2 with two points, place the leftover point at infinity: every
    degree-2 class on a genus-2 curve is effective, so a pair always
    exists."""
    curve = X.curve
    g = curve.genus
    d = (2 * g - 2) - m * (g - 1) + npoints
    if d < 0:
        return None
    if d > 1 or (d == 1 and (g, npoints) != (2, 2)):
        raise RuntimeError(f"unexpected residual degree {d} at genus {g}")
    rep = semi_reduce(curve, m * X.L.rep - canonical_divisor(curve)
                      + Divisor.of_point(curve.infinity(), d))
    found = _effective_points(curve, rep)
    if found is None and d == 1:
        raise RuntimeError("degree-2 classes on genus 2 are effective")
    return found


def very_ample_check(X: SplitSupercurve, nu: int) -> VeryAmpleReport:
    """Separation test for the nu-th power of the Berezinian bundle.

    Condition 1 (point pairs, tangent vectors at x = y): fails exactly
    when K - L^nu + x + y is effective for some points x, y.  Condition 2
    (odd directions): the same with a single point against the summand of
    the other parity.  Degrees settle both except when the residual
    degree is 0, 1 or 2, where effectivity of the residual class is read
    off its reduced divisor, and so is the witness pair of the first
    failure.  A pair with irrational x-coordinates is no CurvePoint pair:
    such a failure has witness None, and `note` names the polynomial of
    their x-coordinates."""
    if nu < 3:
        raise ValueError("need nu >= 3 so that the rank hypotheses hold")
    conditions = (
        (nu, 2, "K - L^nu + x + y is effective at the witness pair"),
        (summand_powers(nu)[1], 1,
         "K - M + x is effective for the odd-direction summand"))
    ok: List[bool] = []
    witness: Optional[Tuple[CurvePoint, CurvePoint]] = None
    note = ""
    for m, npoints, claim in conditions:
        found = _residual_points(X, m, npoints)
        ok.append(found is None)
        if found is None or note:
            continue
        pts, rest = found
        if polyq.deg(rest) > 0:
            note = (f"{claim}; the witness points lie over the irrational "
                    f"roots of {polyq.format_poly(rest)}")
        else:
            witness, note = (pts[0], pts[-1]), claim
    return VeryAmpleReport(nu, all(ok), ok[0], ok[1], witness, note)


def minimal_nu(g: int, quantifier: str = "all-thetas",
               theta: Union[None, str, ThetaCharacteristic] = None) -> int:
    """Smallest nu >= 3 whose Berezinian power passes very_ample_check.

    Under "all-thetas" the check runs on the h0 = 0 and h0 = 1
    representatives, which covers every theta characteristic: the
    boundary verdicts depend on the theta only through whether
    h0(L) >= 1.  Under "this-theta" pass a ThetaCharacteristic, or
    "even"/"odd" to pick the representative of that parity."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    if quantifier == "all-thetas":
        curve = standard_curve(g)
        even, odd = parity_representatives(curve)
        pairs = [(curve, even), (curve, odd)]
    elif quantifier == "this-theta":
        if isinstance(theta, ThetaCharacteristic):
            pairs = [(theta.curve, theta)]
        elif theta in ("even", "odd"):
            curve = standard_curve(g)
            reps = dict(zip(("even", "odd"), parity_representatives(curve)))
            pairs = [(curve, reps[theta])]
        else:
            raise ValueError(f"this-theta quantification needs theta 'even', "
                             f"'odd' or a ThetaCharacteristic, got {theta!r}")
    else:
        raise ValueError(f"unknown quantifier {quantifier!r}")
    models = [make_split_supercurve(c, th) for c, th in pairs]
    for nu in range(3, 8):
        if all(very_ample_check(Xr, nu).passed for Xr in models):
            return nu
    raise RuntimeError("no nu up to 7 passes; unreachable for genus >= 2")


class ThresholdCell(frozen("ThresholdCell",
                           "g nu even_pass odd_pass witness")):
    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return self.even_pass and self.odd_pass

    @property
    def mixed(self) -> bool:
        return self.even_pass != self.odd_pass

    def verdict(self) -> str:
        if self.all_pass:
            return "PASS"
        if self.mixed:
            even = "PASS" if self.even_pass else "FAIL"
            odd = "PASS" if self.odd_pass else "FAIL"
            return f"FAIL(all-thetas): even {even}, odd {odd}"
        return "FAIL"

    def __str__(self):
        line = f"g={self.g} nu={self.nu} {self.verdict()}"
        if self.witness is not None:
            line += f" witness {witness_str(self.witness)}"
        return line

    def to_json(self) -> Dict:
        entry = {
            "g": self.g,
            "nu": self.nu,
            "all_pass": self.all_pass,
            "even_pass": self.even_pass,
            "odd_pass": self.odd_pass,
        }
        if self.witness is not None:
            entry["witness"] = [repr(P) for P in self.witness]
        return entry


def threshold_table(g_max: int = 6, nu_max: int = 6) -> List[ThresholdCell]:
    """Very-ampleness grid over 2 <= g <= g_max, 3 <= nu <= nu_max,
    quantified over theta characteristics through the parity
    representatives."""
    return list(threshold_cells(g_max, nu_max))


def threshold_cells(g_max: int = 6, nu_max: int = 6
                    ) -> Iterator[ThresholdCell]:
    """The cells of threshold_table, by g and then nu, each made when it
    is read, so that a writer holds one at a time.  Bad bounds raise
    ValueError here, before any cell is made."""
    if g_max < 2:
        raise ValueError("genus must be at least 2")
    if nu_max < 3:
        raise ValueError("nu must be at least 3")
    return (cell for g in range(2, g_max + 1)
            for cell in _genus_cells(g, nu_max))


def _genus_cells(g: int, nu_max: int) -> Iterator[ThresholdCell]:
    curve = standard_curve(g)
    even, odd = parity_representatives(curve)
    Xe = make_split_supercurve(curve, even)
    Xo = make_split_supercurve(curve, odd)
    for nu in range(3, nu_max + 1):
        re_ = very_ample_check(Xe, nu)
        ro = very_ample_check(Xo, nu)
        witness = re_.witness if not re_.passed else ro.witness
        yield ThresholdCell(g, nu, re_.passed, ro.passed, witness)


class PluriCanonicalModel(frozen("PluriCanonicalModel", "curve nu ambient "
                                 "even_sections odd_sections cleared_divisors")):
    """Projective model of a split supercurve: a point (z, theta) maps to
    [s_0(z) : ... : s_p(z) | theta t_1(z) : ... : theta t_q(z)] where the
    s_i span the even summand's sections and the t_j the odd summand's,
    each trivialized by clearing the recorded divisor.  Two models are
    equal only when they are the same object."""

    __slots__ = ()
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, curve, nu, ambient, even_sections, odd_sections,
                cleared_divisors):
        if (len(even_sections) != ambient.even + 1
                or len(odd_sections) != ambient.odd):
            raise ValueError("section counts do not match the ambient space")
        return super().__new__(cls, curve, nu, ambient, even_sections,
                               odd_sections, cleared_divisors)


class NotVeryAmpleError(ValueError):
    """build_model's refusal of a power that fails very_ample_check."""


def build_model(X: SplitSupercurve, nu: int,
                force: bool = False) -> PluriCanonicalModel:
    """Model of X by the sections of the nu-th Berezinian power.

    The even coordinates come from the summand of even parity (L^nu for
    even nu, L^(nu+1) for odd nu) and the odd coordinates from the other
    summand.  Raises NotVeryAmpleError when the very-ampleness check
    fails; `force` skips that gate so deliberately failing models can be
    built and fed to verify_embedding.  Below nu = 3 it raises ValueError
    either way."""
    report = very_ample_check(X, nu)
    if not report.passed and not force:
        detail = report.note
        if report.witness is not None:
            detail += f"; witness {witness_str(report.witness)}"
        raise NotVeryAmpleError(f"power {nu} is not very ample ({detail})")
    curve = X.curve
    k_even, k_odd = summand_powers(nu)
    D_even = _power_divisor(X, k_even)
    D_odd = _power_divisor(X, k_odd)
    even_sections = tuple(rr_space(curve, D_even))
    odd_sections = tuple(rr_space(curve, D_odd))
    ambient = RankPair(len(even_sections) - 1, len(odd_sections))
    return PluriCanonicalModel(curve, nu, ambient, even_sections,
                               odd_sections, {"even": D_even, "odd": D_odd})


class EmbeddingReport(frozen("EmbeddingReport", "model pairs_checked "
                             "points_checked pair_failures tangent_failures "
                             "odd_failures")):
    """What verify_embedding checked and where it failed.  Two reports
    are equal only when they are the same object."""

    __slots__ = ()
    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def all_pass(self) -> bool:
        return not (self.pair_failures or self.tangent_failures
                    or self.odd_failures)

    def summary(self) -> str:
        if self.all_pass:
            return "all checks pass"
        return (f"{len(self.pair_failures)} pair, "
                f"{len(self.tangent_failures)} tangent, "
                f"{len(self.odd_failures)} odd-direction failures")

    __str__ = summary

    def to_json(self) -> Dict:
        return {
            "all_pass": self.all_pass,
            "pairs_checked": self.pairs_checked,
            "points_checked": self.points_checked,
            "pair_failures": [[repr(P), repr(Q)]
                              for P, Q in self.pair_failures],
            "tangent_failures": [repr(P) for P in self.tangent_failures],
            "odd_failures": [repr(P) for P in self.odd_failures],
        }


def _sample_pool(curve: HyperellipticCurve, rng: random.Random,
                 n: int) -> List[CurvePoint]:
    """Deterministic mix of special and random points: infinity and the
    branch points show up with fixed probability, the rest are rational-x
    points whose y lives in Q or in a quadratic extension Q(sqrt d): real
    where f(x) > 0, imaginary where f(x) < 0."""
    specials = [curve.infinity()] + curve.rational_branch_points()
    pool: List[CurvePoint] = []
    drawn: Dict[Fraction, CurvePoint] = {}  # x -> the point with sign 1
    while len(pool) < n:
        if rng.random() < 0.15:
            pool.append(specials[rng.randrange(len(specials))])
            continue
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        P = drawn.get(x)
        if P is None:
            P = drawn[x] = (curve.branch_point(x)
                            if polyq.eval_at(curve.f, x) == 0
                            else curve.point(x))
        if P.y != 0 and rng.choice((1, -1)) == -1:
            P = P.conjugate()
        pool.append(P)
    return pool


def verify_embedding(M: PluriCanonicalModel,
                     samples: Union[int, Sequence[CurvePoint]] = 100,
                     seed: int = 0) -> EmbeddingReport:
    """Exact separation checks for a model.

    (a) distinct sample points get independent even-coordinate value
    rows (rank 2); (b) at every sample point the value row and the first
    derivative row are independent, so the map is an immersion there;
    (c) the odd-coordinate value row never vanishes.  A pair with equal
    members runs check (b) in place of (a).  Rows are scaled Laurent
    coefficients, so points on the cleared divisors are fine; they are
    read from jets.SectionJets, which at almost every finite point
    computes an entry only when a check reads it.  Each check stops at
    its first witness: (b) at the first nonzero minor
    (fieldext.int_rows_dependent), (c) at the first odd section not zero
    at the point, and (a), for all pairs at once, once partition
    refinement (fieldext.row_classes) has told each point's row apart.
    A sample point off M.curve is a ValueError.  An integer
    `samples` draws that many point pairs deterministically from `seed`;
    a point list checks all pairs from the list.  Fewer than one sample
    is a ValueError, so a report never passes on no checks."""
    from .jets import PointFrame, SectionJets
    curve = M.curve
    if isinstance(samples, int):
        rng = random.Random(seed)
        pts = _sample_pool(curve, rng, 2 * samples)
        pairs = [(2 * i, 2 * i + 1) for i in range(samples)]
    else:
        pts = list(samples)
        pairs = [(i, j)
                 for i in range(len(pts)) for j in range(i + 1, len(pts))]
    if not pts:
        raise ValueError("samples must be at least 1")

    index: Dict[CurvePoint, int] = {}  # the distinct points, in order
    slot = [index.setdefault(P, len(index)) for P in pts]

    D = M.cleared_divisors
    even = SectionJets(curve, M.even_sections, D["even"], "even")
    odd = SectionJets(curve, M.odd_sections, D["odd"], "odd")
    N = max(even.degree, odd.degree)
    n, n_odd = len(M.even_sections), len(M.odd_sections)
    rows = []  # a reader of each distinct point's value row, with its d
    tangent_failures: List[CurvePoint] = []
    odd_failures: List[CurvePoint] = []
    for P in index:
        frame = None if P.at_infinity else PointFrame(P, N, even.F)
        if P.curve != curve or frame and not frame.on_curve(even.lam_f):
            raise ValueError(f"sample point {P!r} is not on {curve!r}")
        (r0, r1), d = even.rows(P, frame, 2)
        rows.append((r0, d))
        if int_rows_dependent(r0, r1, n, d):
            tangent_failures.append(P)
        if anchor(odd.rows(P, frame, 1)[0][0], n_odd) is None:
            odd_failures.append(P)
    classes = row_classes(rows, n)
    c = [classes[i] for i in slot]  # a pair of equal points is check (b)
    pair_failures = [(pts[a], pts[b]) for a, b in pairs if slot[a] != slot[b]
                     and (c[a] is None or c[b] is None or c[a] == c[b])]

    return EmbeddingReport(M, len(pairs), len(index), pair_failures,
                           tangent_failures, odd_failures)


def _chart_point(curve: HyperellipticCurve) -> CurvePoint:
    """The first rational finite branch point W, which bounds the chart
    cover {C minus infinity, C minus W}."""
    points = curve.rational_branch_points()
    if not points:
        raise ValueError(f"{curve!r} has no rational finite branch point "
                         f"to serve as the chart point W")
    return points[0]


class SuperPointFamily:
    """Family over the 0|1-dimensional base Lambda[eta]: the split fiber
    with the transition of each pushforward summand twisted by
    (1 + eta h) across the cover {C minus infinity, C minus W}, where W
    is the first finite branch point.  Setting eta = 0 gives back the
    split fiber on the nose; h must be regular on the chart overlap."""

    __slots__ = ("fiber", "deformation", "chart_point")

    def __init__(self, fiber: SplitSupercurve,
                 deformation: FunctionFieldElement):
        curve = fiber.curve
        W = _chart_point(curve)
        h = deformation
        if not isinstance(h, FunctionFieldElement):
            h = curve.one_fn() * h
        if h.curve != curve:
            raise ValueError("deformation lives on a different curve")
        # den is coprime to gcd(A, B), so each root of den is a pole at
        # some point above it: only W may lie above one
        if h.den != polyq.from_roots([W.x] * polyq.deg(h.den)):
            raise ValueError(f"deformation cochain has poles away from the "
                             f"chart overlap: denominator "
                             f"{polyq.format_poly(h.den)}")
        self.fiber = fiber
        self.deformation = h
        self.chart_point = W

    def __repr__(self):
        return (f"SuperPointFamily(base=0|1, fiber genus {self.fiber.genus}, "
                f"h={self.deformation!r})")


def random_deformation(curve: HyperellipticCurve, rng=None,
                       seed=None) -> FunctionFieldElement:
    """Random overlap-regular cochain: a nonzero small-integer combination
    of a basis of the functions with poles of order at most 3 at W and at
    infinity."""
    if rng is None:
        rng = random.Random(seed)
    W = _chart_point(curve)
    basis = rr_space(curve, Divisor({W: 3, curve.infinity(): 3}))
    while True:
        coeffs = [rng.randint(-5, 5) for _ in basis]
        if any(coeffs):
            break
    h = curve.zero_fn()
    for c, b in zip(coeffs, basis):
        if c:
            h = h + b * Fraction(c)
    return h


Matrix = Tuple[Tuple[Union[int, Fraction], ...], ...]


def _residue_matrix(curve: HyperellipticCurve, D: Divisor,
                    h: FunctionFieldElement) -> Matrix:
    """Serre-duality matrix of the eta-obstruction of one summand.

    H^1(D) is dual to L(K - D) through <c, b> = Res_inf(c b dx/y), where
    K = (2g - 2) inf is the divisor of dx/y itself; K - D is therefore
    used as it is, not reduced.  Row k, column j is Res_inf(h a_k b_j
    dx/y) for the bases a_k of L(D) and b_j of L(K - D).  The matrix is
    () when either space is zero.

    Each entry is a polynomial division.  With h a_k b_j = (A + B y)/den,
    formed by polynomial products and never normalised, the form is
    A dx/(den y) + B dx/den.  The first term is anti-invariant under the
    hyperelliptic involution, which fixes infinity, so its residue there
    is 0.  The second is pulled back from P^1, where infinity is
    ramified of index 2, so the entry is twice the residue at infinity
    of B dx/den on P^1: -2 c / lc(den), with c the coefficient of
    x^(deg den - 1) in B mod den."""
    a = rr_space(curve, D)
    b = rr_space(curve, canonical_divisor(curve) - D)
    if not a or not b:
        return ()
    mul, add, f = polyq.mul, polyq.add, curve.f
    rows = []
    for ak in a:
        hA = add(mul(h.A, ak.A), mul(mul(h.B, ak.B), f))
        hB = add(mul(h.A, ak.B), mul(h.B, ak.A))
        hden = mul(h.den, ak.den)
        rows.append(tuple(
            _infinity_residue(add(mul(hA, bj.B), mul(hB, bj.A)),
                              mul(hden, bj.den))
            for bj in b))
    return tuple(rows)


def _infinity_residue(B: polyq.Poly, den: polyq.Poly) -> Union[int, Fraction]:
    """Res_inf(B dx/den) on the curve: -2 c / lc(den), where c is the
    coefficient of x^(deg den - 1) in B mod den."""
    d = polyq.deg(den)
    if d == 0:
        return 0
    rem = polyq.divmod_(B, den)[1]
    c = rem[d - 1] if len(rem) == d else 0
    return polyq.rational(Fraction(-2 * c) / polyq.lead(den))


def _rank(matrix: Matrix) -> int:
    if not matrix:
        return 0
    space = ColumnSpace(len(matrix[0]))
    for row in matrix:
        space.add(row)
    return space.rank


class SuperPointReport(frozen("SuperPointReport", "nu free rank drop_even "
                              "drop_odd hypotheses_hold residues_even "
                              "residues_odd")):
    """Rank pair and obstruction ranks over the superpoint.  The residue
    matrix of each summand (rows over L(D), columns over L(K - D)) is
    its certificate: the drop is its rank."""

    __slots__ = ()

    def __str__(self):
        state = "free" if self.free else (
            f"not free (drops {self.drop_even}|{self.drop_odd})")
        return f"{state}, rank {self.rank}"

    def to_json(self) -> Dict:
        """The verdict without the residue matrices."""
        return {
            "nu": self.nu,
            "free": self.free,
            "rank": str(self.rank),
            "drop_even": self.drop_even,
            "drop_odd": self.drop_odd,
            "hypotheses_hold": self.hypotheses_hold,
        }


def pushforward_over_superpoint(F: SuperPointFamily,
                                nu: int) -> SuperPointReport:
    """Sections of the deformed nu-th Berezinian power over Lambda[eta].

    A section is a chart pair (f0 + eta f1, g0 + eta g1) matching as
    g = (1 + eta h) f on the overlap, so f0 = g0 is a global section of
    the summand and the eta-component exists iff the Cech class of h f0
    in H^1 of the summand vanishes.  Each summand is first decided by
    its h1, read from the certificate of pluri_canonical_rank, which
    takes it from the degree of L^k, the susy flag at k = 2 and h0(L)
    at k = 1: with h1 = 0 nothing obstructs, its matrix is () and no
    divisor or section space is built.  That is every summand for
    nu >= 3, so there the rank pair is that of the fiber.  Otherwise
    (nu <= 2) by Serre duality the class is zero iff its
    residue pairing with every b in L(K - D) is zero, so the summand's
    obstruction rank is the rank of its residue matrix, computed exactly
    by polynomial division: nothing is truncated, so any overlap-regular
    cochain is decided, whatever its pole orders.  The module is free
    exactly when no basis section obstructs."""
    X = F.fiber
    rr, cert = _certified_rank(X, nu)
    h1 = {nu: cert.h1_E, nu + 1: cert.h1_EL}
    m_even, m_odd = (
        _residue_matrix(X.curve, _power_divisor(X, k), F.deformation)
        if h1[k] else () for k in summand_powers(nu))
    drop_even, drop_odd = _rank(m_even), _rank(m_odd)
    return SuperPointReport(nu, drop_even == 0 and drop_odd == 0, rr.rank,
                            drop_even, drop_odd, rr.hypotheses_hold,
                            m_even, m_odd)


class NonembeddingReport(frozen("NonembeddingReport", "rank h0_L obstruction")):
    __slots__ = ()


def canonical_nonembedding_demo(X: SplitSupercurve) -> NonembeddingReport:
    """First Berezinian power over a point base.  For a theta
    characteristic without sections the rank is 0|g, and the would-be
    ambient space has even dimension -1: no room for a 1|1-dimensional
    curve, so there is no canonical model.  For h0(L) >= 1 the report
    carries the rank pair and makes no claim."""
    rr, cert = _certified_rank(X, 1)
    g = X.genus
    h0_L = cert.h0_E
    if h0_L == 0:
        claim = (f"rank 0|{g}: the ambient space would be P^(-1|{g}), "
                 f"which cannot contain a 1|1-dimensional curve")
        return NonembeddingReport(rr.rank, h0_L, claim)
    return NonembeddingReport(rr.rank, h0_L, None)
