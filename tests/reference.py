"""The tests' references: a Bareiss determinant, a plain LLL and a check
of bkz's window postcondition.

No library path calls any of them.  The determinant checks that a
reduction keeps the lattice; lll is the kernel alone, with no BKZ on top,
and pins what the kernel returns; windows_are_shortest checks what bkz
returns, and scripts/hkz_sweep.py imports it from here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from sqrtgap import lattice
from sqrtgap.lattice import LatticeBasis, Row, as_rows, enumerate_block
from sqrtgap.reduction import ReducedBasis, _lll, verify_reduced


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
    state = _lll(as_rows(basis))
    return ReducedBasis(tuple(map(tuple, state.rows)), state.swaps)


def windows_are_shortest(rows: Sequence[Row], block_size: int) -> bool:
    """Whether each window [i, i + block_size) of the rows' fresh integer
    GSO starts with a shortest projected vector of the window: bkz's
    postcondition without until.  A block_size of len(rows) or more asks
    whether the rows are HKZ-reduced.  It takes reduced rows, as bkz returns
    them, and raises verify_reduced's ReductionError on any others:
    a search within an unreduced row's length need not finish."""
    verify_reduced(rows)
    d, lam = lattice.integral_gso(rows)
    n = len(rows)
    return all(
        enumerate_block(rows, d, lam, i, min(i + block_size, n))[1] == d[i + 1]
        for i in range(n - 1)
    )
