"""The tests' reference reducers: a Bareiss determinant and a plain LLL.

No library path calls either.  The determinant checks that a reduction
keeps the lattice; lll is the kernel alone, with no BKZ on top, and pins
what the kernel returns.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from sqrtgap.lattice import LatticeBasis, as_rows
from sqrtgap.reduction import ReducedBasis, _IntegralLLL


def determinant(basis: "LatticeBasis | Iterable[Sequence[int]]") -> int:
    """Absolute determinant of a square integer row matrix, by Bareiss."""
    rows = as_rows(basis)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    m = [list(r) for r in rows]
    prev = 1
    for p in range(n - 1):
        if m[p][p] == 0:
            for q in range(p + 1, n):
                if m[q][p] != 0:
                    m[p], m[q] = m[q], m[p]
                    break
            else:
                return 0
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                m[i][j] = (m[i][j] * m[p][p] - m[i][p] * m[p][j]) // prev
            m[i][p] = 0
        prev = m[p][p]
    return abs(m[n - 1][n - 1])


def lll(basis: "LatticeBasis | Sequence[Sequence[int]]") -> ReducedBasis:
    """LLL-reduce integer rows; the result is exactly size-reduced and
    satisfies the Lovasz condition with delta = DEFAULT_DELTA, both
    re-verified on a fresh integer GSO of the output rows.  Raises
    ReductionError if the swap budget runs out."""
    state = _IntegralLLL(as_rows(basis))
    state.reduce()
    return ReducedBasis(tuple(map(tuple, state.rows)), state.swaps)
