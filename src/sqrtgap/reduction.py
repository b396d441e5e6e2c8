"""Exact LLL and BKZ reduction of integer lattice bases.

The LLL core is the classic all-integer variant: instead of rational
Gram-Schmidt data it maintains

    d[i]     = determinant of the Gram matrix of the first i rows (d[0] = 1)
    lam[i][j] = d[j+1] * mu[i][j]

which are integers throughout, so no floating point ever enters and the
output is bit-reproducible.  Squared Gram-Schmidt norms are recovered as
d[i+1]/d[i].  The Lovasz test with parameter delta = p/q becomes the
integer comparison  q*(d[k-1]*d[k+1] + lam[k][k-1]^2) < p*d[k]^2.
As in Cohen's integral LLL (A Course in Computational Algebraic Number
Theory, Algorithm 2.6.7), d and lam are kept only for the rows LLL has
reached so far, up to kmax: a row's data is built the first time LLL gets
to it, and a swap at k updates rows k+1 .. kmax only.  d[i] and lam[i]
depend on rows 0..i alone, so a row built late gets exactly the values an
eager update would have given it, and every decision is the same.

BKZ runs complete (unpruned) enumeration inside sliding windows of the
Gram-Schmidt-projected basis, on the same integer d and lam, and whenever a
strictly shorter projected vector exists, applies a unimodular combination
of the window rows that starts with it, one elementary row operation at a
time (complete_to_unimodular), and re-reduces.  An insertion into the
window [i, i+m) changes only those rows, so the integer Gram-Schmidt data
is brought up to date from row i on (lattice.update_integral_gso) rather
than rebuilt, and LLL resumes at row i: the rows before it are unchanged
and already reduced.  No transform is formed or kept, since
LatticeBasis.coordinates recovers it from the rows.

Both reducers return a ReducedBasis, which re-verifies size reduction and
the Lovasz condition on a fresh integer GSO of the output rows
(lattice.integral_gso, from the rows alone, not the reducer's d and lam)
and keeps that pass's exact profile d[i+1]/d[i] and Gram determinant d[n]:
the only exact GSO a certificate needs.  The library reduces with bkz's
default DEFAULT_BLOCK_SIZE; no caller outside this module sets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import lattice
from .exactnum import round_half_up
from .lattice import (
    GramSchmidtProfile,
    LatticeBasis,
    Row,
    as_rows,
    enumerate_block,
    fraction_gso,  # perfbench/tracer.py binds reduction.fraction_gso by getattr
    update_integral_gso,
)

DEFAULT_DELTA = Fraction(99, 100)
DEFAULT_BLOCK_SIZE = 10


class ReductionError(RuntimeError):
    """Reduction ran out of its swap or tour budget, or failed verification."""


@dataclass(frozen=True)
class ReducedBasis:
    """Rows that verify_reduced accepts, with the profile it computed from
    them, so no other basis's profile can be attached."""

    rows: tuple[Row, ...]
    swaps: int  # LLL swaps over the whole reduction
    profile: GramSchmidtProfile = field(init=False)

    def __post_init__(self):  # verify_reduced looked up now: perfbench wraps it
        object.__setattr__(self, "profile", verify_reduced(self.rows))


def _swap_budget(rows: Sequence[Sequence[int]]) -> int:
    """LLL swap budget: 10*n^2 scaled by the bit length of the largest entry.

    The classic 10*n^2 margin is genuinely exceeded by legitimate reductions
    once entries reach hundreds of bits (the swap count grows with the log
    of the entry size).
    """
    return 10 * len(rows) ** 2 * max(1, max(abs(e) for row in rows for e in row).bit_length())


def _tour_budget(dim: int) -> int:
    """BKZ tour cap: a safety valve polynomial in the dimension, not a tuning knob."""
    return max(10, 10 * dim)


class _IntegralLLL:
    """All-integer LLL state over basis rows, with its own swap budget.

    d[: kmax + 2] and lam[: kmax + 1] hold the integral Gram-Schmidt data of
    rows[: kmax + 1]; the later entries stay zero until reduce reaches them.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        if not rows:
            raise ValueError("need at least one row")
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        self.swaps = 0
        self.d = [1] + [0] * self.n
        self.lam = [[0] * self.n for _ in range(self.n)]
        self.kmax = 0
        self._extend(0)
        self.max_swaps = _swap_budget(rows)

    def _extend(self, k: int) -> None:
        """Build d[k+1] and lam[k] from rows 0..k; raises DependentRowsError."""
        # Through the module: this module's own update_integral_gso name is
        # the BKZ insertion's, which tests wrap to check each insertion.
        lattice.update_integral_gso(self.rows[: k + 1], self.d, self.lam, k, k + 1)

    def _red(self, k: int, j: int) -> None:
        lam, d = self.lam, self.d
        if 2 * abs(lam[k][j]) <= d[j + 1]:
            return
        q = round_half_up(lam[k][j], d[j + 1])
        rk, rj = self.rows[k], self.rows[j]
        self.rows[k] = [a - q * b for a, b in zip(rk, rj)]
        for t in range(j):
            lam[k][t] -= q * lam[j][t]
        lam[k][j] -= q * d[j + 1]

    def _swap(self, k: int) -> None:
        lam, d = self.lam, self.d
        self.rows[k], self.rows[k - 1] = self.rows[k - 1], self.rows[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_mid = lam[k][k - 1]
        d_new = (d[k - 1] * d[k + 1] + lam_mid * lam_mid) // d[k]
        for i in range(k + 1, self.kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_mid * t) // d[k]
            lam[i][k - 1] = (d_new * t + lam_mid * lam[i][k]) // d[k + 1]
        d[k] = d_new

    def reduce(self, k: int = 1) -> None:
        """LLL with DEFAULT_DELTA from row k on; the rows before k must be reduced."""
        num, den = DEFAULT_DELTA.numerator, DEFAULT_DELTA.denominator
        lam, d = self.lam, self.d
        while k < self.n:
            if k > self.kmax:
                self._extend(k)
                self.kmax = k
            self._red(k, k - 1)
            if den * (d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2) < num * d[k] * d[k]:
                self._swap(k)
                self.swaps += 1
                if self.swaps > self.max_swaps:
                    raise ReductionError(f"swap budget exhausted after {self.swaps} swaps")
                k = max(k - 1, 1)
            else:
                for j in range(k - 2, -1, -1):
                    self._red(k, j)
                k += 1


def verify_reduced(rows: Sequence[Row]) -> GramSchmidtProfile:
    """Check size reduction and the DEFAULT_DELTA Lovasz condition on a
    fresh integer GSO of the output rows.

    With d and lam from lattice.integral_gso, |mu[i][j]| <= 1/2 is
    2*|lam[i][j]| <= d[j+1], and the Lovasz condition with delta = p/q is
    p*d[k]^2 <= q*(d[k-1]*d[k+1] + lam[k][k-1]^2): both integer comparisons.
    Returns the exact Gram-Schmidt profile d[i+1]/d[i] that the check computed.
    """
    # Through the module, so that tests can count the verification passes.
    d, lam = lattice.integral_gso(rows)
    n = len(rows)
    for i in range(n):
        for j in range(i):
            if 2 * abs(lam[i][j]) > d[j + 1]:
                mu = Fraction(lam[i][j], d[j + 1])
                raise ReductionError(f"size reduction violated at ({i}, {j}): mu = {mu}")
    p, q = DEFAULT_DELTA.numerator, DEFAULT_DELTA.denominator
    for k in range(1, n):
        if p * d[k] * d[k] > q * (d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2):
            raise ReductionError(f"Lovasz condition violated between rows {k - 1} and {k}")
    return GramSchmidtProfile.from_d(d)


def lll(basis: "LatticeBasis | Sequence[Sequence[int]]") -> ReducedBasis:
    """LLL-reduce integer rows; the result is exactly size-reduced and
    satisfies the Lovasz condition with delta = DEFAULT_DELTA, both
    re-verified on a fresh integer GSO of the output rows.  Raises
    ReductionError if the swap budget runs out."""
    state = _IntegralLLL(as_rows(basis))
    state.reduce()
    return ReducedBasis(tuple(map(tuple, state.rows)), state.swaps)


def complete_to_unimodular(coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """W @ rows, for a unimodular integer W whose first row is the given
    primitive coefficient vector, without forming W.

    Reduces the vector to a unit vector by elementary column operations while
    applying the inverse operations to the rows; on the identity they build
    W, and the invariant x = y @ W turns into x = e_1 @ W = W[0] when y
    reaches e_1.
    """
    y = [int(c) for c in coeffs]
    w = [list(r) for r in rows]
    while True:
        nonzero = [i for i, v in enumerate(y) if v]
        if not nonzero:
            raise ValueError("zero vector cannot start a unimodular matrix")
        if len(nonzero) == 1:
            p = nonzero[0]
            break
        i = min(nonzero, key=lambda idx: abs(y[idx]))
        for j in nonzero:
            if j == i:
                continue
            q = y[j] // y[i]
            if q:
                y[j] -= q * y[i]
                w[i] = [a + q * b for a, b in zip(w[i], w[j])]
    if abs(y[p]) != 1:
        raise ValueError(f"vector is not primitive (gcd {abs(y[p])})")
    if p != 0:
        y[0], y[p] = y[p], y[0]
        w[0], w[p] = w[p], w[0]
    if y[0] == -1:
        w[0] = [-a for a in w[0]]
    return w


def bkz(
    basis: "LatticeBasis | Sequence[Sequence[int]]", block_size: int = DEFAULT_BLOCK_SIZE
) -> ReducedBasis:
    """Block reduction: LLL, then sliding-window exact enumeration.

    On return each window of block_size consecutive Gram-Schmidt projected
    vectors starts with a vector achieving the exact projected shortest
    length: tours repeat until one makes no change, and ReductionError is
    raised if _tour_budget tours pass without that.  Within enumeration,
    equal-norm candidates resolve to the lexicographically smallest
    coefficient vector with positive leading coefficient, so results are
    deterministic.
    """
    if block_size < 2:
        raise ValueError(f"block_size must be >= 2, got {block_size}")
    state = _IntegralLLL(as_rows(basis))
    state.reduce()
    n = state.n
    tours = _tour_budget(n)
    for _ in range(tours):
        changed = False
        for i in range(n - 1):
            m = min(block_size, n - i)
            # The window's first row has q = d[i+1], the radius, so a vector
            # is always found; a strictly smaller q is a shorter one.
            coeffs, q = enumerate_block(state.d, state.lam, i, i + m, state.d[i + 1])
            if q >= state.d[i + 1]:
                continue
            state.rows[i : i + m] = complete_to_unimodular(coeffs, state.rows[i : i + m])
            update_integral_gso(state.rows, state.d, state.lam, i, i + m)
            state.reduce(max(i, 1))
            changed = True
        if not changed:
            return ReducedBasis(tuple(map(tuple, state.rows)), state.swaps)
    raise ReductionError(f"BKZ windows still improving after {tours} tours")


def reduced_profile(reduced: ReducedBasis) -> GramSchmidtProfile:
    """Exact Gram-Schmidt profile of a reduced basis, as verification computed it."""
    return reduced.profile
