"""Exact rational linear algebra: kernels and incremental column spaces."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Basis of the null space of the matrix given by `rows`, via Gauss-Jordan."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivot_cols: List[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        if pv != 1:
            mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(mat):
            break
    in_pivots = set(pivot_cols)
    basis: List[List[Fraction]] = []
    for fc in range(ncols):
        if fc in in_pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


class ColumnSpace:
    """Incrementally built column space of vectors of fixed dimension.

    `reduce` returns the residual of a vector against the space; a vector
    lies in the space iff its residual is zero.  Built once and reused for
    many membership tests.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.basis: List[tuple] = []  # (pivot index, reduced vector)

    def reduce(self, vec: Sequence[Fraction]) -> List[Fraction]:
        v = [Fraction(x) for x in vec]
        for pivot, b in self.basis:
            c = v[pivot]
            if c != 0:
                f = c / b[pivot]
                for i in range(self.dim):
                    if b[i] != 0:
                        v[i] -= f * b[i]
        return v

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Add a vector; returns True if it enlarged the space."""
        r = self.reduce(vec)
        p = next((i for i, x in enumerate(r) if x != 0), None)
        if p is None:
            return False
        self.basis.append((p, r))
        return True

    @property
    def rank(self) -> int:
        return len(self.basis)
