"""Small exact linear algebra over Fraction.

The matrices here are tiny (indexed by partitions or Schubert classes of one
degree), so plain Gaussian elimination on lists of Fractions is the right
tool; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInconsistencyError


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def invert(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square nonsingular matrix."""
    m = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(m)):
        raise InternalInconsistencyError("singular matrix in exact invert")
    return [row[m:] for row in red]
