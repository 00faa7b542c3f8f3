"""Exact rational linear algebra: one elimination, which keeps the basis
of a `ColumnSpace` in reduced echelon form, and the kernels read off it.
Entries are ints or Fractions, as in `polyq`; a float raises TypeError."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .polyq import rational


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Basis of the null space of the matrix given by `rows`: for each
    column c without a pivot, 1 at c and -b[c] at the pivot of each
    vector b of the row space's reduced echelon basis."""
    space = ColumnSpace(ncols)
    for r in rows:
        space.add(r)
    pivots = {p for p, _ in space.basis}
    basis: List[List[Fraction]] = []
    for c in range(ncols):
        if c not in pivots:
            v = [0] * ncols
            v[c] = 1
            for p, b in space.basis:
                v[p] = -b[c]
            basis.append(v)
    return basis


class ColumnSpace:
    """Incrementally built column space of vectors of fixed dimension,
    its basis each 1 at its pivot and 0 at every other pivot.

    `reduce` returns the residual of a vector against the space, the one
    vector of its coset that is 0 at every pivot; a vector lies in the
    space iff its residual is zero.  Built once and reused for many
    membership tests.  A vector whose length is not `dim` raises
    ValueError.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.basis: List[tuple] = []  # (pivot index, reduced vector)

    def reduce(self, vec: Sequence[Fraction]) -> List[Fraction]:
        if len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)} in a space of "
                             f"dimension {self.dim}")
        v = [rational(x) for x in vec]
        for pivot, b in self.basis:
            c = v[pivot]
            if c:
                for i, x in enumerate(b):
                    if x:
                        v[i] -= c * x
        return v

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Add a vector; returns True if it enlarged the space."""
        r = self.reduce(vec)
        p = next((i for i, x in enumerate(r) if x), None)
        if p is None:
            return False
        inv = Fraction(1) / r[p]
        r = [rational(x * inv) for x in r]
        for k, (q, b) in enumerate(self.basis):
            c = b[p]
            if c:  # clear the new pivot from the older vectors
                self.basis[k] = (q, [x - c * y for x, y in zip(b, r)])
        self.basis.append((p, r))
        return True

    @property
    def rank(self) -> int:
        return len(self.basis)
