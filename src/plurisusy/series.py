"""Truncated Laurent series with exact field coefficients.

A TSeries represents sum_{k >= val} c_k t^k known exactly for all k < cut.
Coefficients are Fractions or QuadExt elements; all arithmetic is exact and
truncation windows are tracked so that no claimed coefficient is ever wrong.
Only `curve` builds series, for the public `laurent_at` and `evaluate`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .polyq import sqrt_window


class TSeries:
    __slots__ = ("val", "coeffs", "cut")

    def __init__(self, val: int, coeffs: Sequence, cut: int):
        coeffs = list(coeffs)
        if len(coeffs) != cut - val:
            raise ValueError("window length mismatch")
        # strip leading zeros so val points at the first potentially
        # nonzero coefficient
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            val += 1
        self.val = val
        self.coeffs = coeffs
        self.cut = cut

    @staticmethod
    def zero(cut: int) -> "TSeries":
        return TSeries(cut, [], cut)

    @staticmethod
    def from_poly_coeffs(coeffs: Sequence, cut: int, val: int = 0) -> "TSeries":
        cs = list(coeffs)[: max(0, cut - val)]
        cs += [Fraction(0)] * (cut - val - len(cs))
        return TSeries(val, cs, cut)

    def is_empty(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        """Coefficient of t^k; k must be below the truncation cut."""
        if k >= self.cut:
            raise ValueError("coefficient beyond truncation window")
        if k < self.val:
            return Fraction(0)
        return self.coeffs[k - self.val]

    def __neg__(self):
        return TSeries(self.val, [-c for c in self.coeffs], self.cut)

    def __add__(self, other: "TSeries"):
        cut = min(self.cut, other.cut)
        val = min(self.val, other.val, cut)
        cs = [Fraction(0)] * (cut - val)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                k = s.val + i
                if k < cut:
                    cs[k - val] = cs[k - val] + c
        return TSeries(val, cs, cut)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "TSeries"):
        cut = min(self.val + other.cut, other.val + self.cut)
        if self.is_empty() or other.is_empty():
            return TSeries.zero(cut)
        val = self.val + other.val
        cs = [Fraction(0)] * (cut - val)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                k = self.val + i + other.val + j
                if k >= cut:
                    break
                cs[k - val] = cs[k - val] + a * b
        return TSeries(val, cs, cut)

    def inverse(self) -> "TSeries":
        """Multiplicative inverse; the leading coefficient must be a unit and
        exactly known (a series that vanishes through its whole window has no
        computable inverse)."""
        if self.is_empty() or self.coeffs[0] == 0:
            raise ZeroDivisionError("series with unknown or zero leading term")
        n = self.cut - self.val
        lead_inv = Fraction(1) / self.coeffs[0]
        out: List = [lead_inv] + [Fraction(0)] * (n - 1)
        for k in range(1, n):
            acc = Fraction(0)
            for i in range(1, k + 1):
                ci = self.coeffs[i] if i < len(self.coeffs) else Fraction(0)
                acc = acc + ci * out[k - i]
            out[k] = -lead_inv * acc
        return TSeries(-self.val, out, -self.val + n)

    def sqrt_with(self, root0) -> "TSeries":
        """Square root with prescribed leading root: val must be even and
        root0*root0 must equal the leading coefficient."""
        if self.is_empty():
            raise ValueError("cannot take sqrt of a series with empty window")
        if self.val % 2:
            raise ValueError("odd valuation has no series square root")
        c0 = self.coeffs[0]
        if root0 * root0 != c0:
            raise ValueError("prescribed root does not square to the leading term")
        n = self.cut - self.val
        half = self.val // 2
        return TSeries(half, sqrt_window(self.coeffs, root0, n), half + n)

    def __repr__(self):
        terms = ", ".join(f"t^{self.val + i}: {c}" for i, c in enumerate(self.coeffs))
        return f"TSeries[{terms} | O(t^{self.cut})]"
