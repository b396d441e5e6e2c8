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
Gram-Schmidt-projected basis, on the same integer d and lam.  The window
follows from the number of rows n alone: it spans the basis up to
HKZ_MAX_DIM rows and has DEFAULT_BLOCK_SIZE rows above that; nothing else
sets it.  Each window's search (lattice.enumerate_block) has the window's
first row as its radius and breaks ties between equally short vectors by
their projections, never by their coefficients.  Whenever a strictly
shorter projected vector exists, bkz applies a unimodular combination
of the window rows that starts with it, one elementary row operation at a
time (complete_to_unimodular), and re-reduces.  An insertion into the
window [i, i+m) changes only those rows, so the integer Gram-Schmidt data
is brought up to date from row i on (lattice.update_integral_gso) rather
than rebuilt, and LLL resumes at row i: the rows before it are unchanged
and already reduced.  No transform is formed or kept, since
LatticeBasis.coordinates recovers it from the rows.

Given a target (until, a predicate on the exact minimum Gram-Schmidt
norm), bkz stops at the first reduced state whose minimum passes it.  A
certificate needs only some basis whose minimum clears the threshold,
since any basis's minimum bounds lambda_1 from below, so converging further
would only cost time.  That path first runs one LLL pass at
PRECONDITION_DELTA = 3/4, which needs fewer swaps, and then the
DEFAULT_DELTA pass on the same state; the target is checked, on
GramSchmidtProfile.from_d of the reducer's own d (the minimum the verified
profile reads), after that pass and after each insertion's re-reduction, so
every state it sees is DEFAULT_DELTA-reduced.

Without a target the pre-pass runs only where the window spans the basis.
BKZ with such a window converges to an HKZ-reduced basis (Kannan, STOC
1983; Schnorr-Euchner, Math. Programming 1994): each row's projection is a
shortest vector of the lattice projected orthogonally to the rows before
it, and the row is size-reduced.  That leaves three things to the start:
which of several equally short projections a row takes, the row's sign,
and a size-reduction coefficient of exactly +-1/2.  bkz settles all three.
A spanning window also replaces a row that only ties the shortest
projection, by enumerate_block's pick, the tie whose projection
d[i] * pi_i(v), signed to start positive, is lexicographically smallest;
and on convergence _IntegralLLL.normalize signs each row by its
Gram-Schmidt vector and takes every mu into [-1/2, 1/2).  The rows
returned are then a function of the lattice alone, so where the LLL
started, and with which delta, changes only the swaps it takes.  With a
narrower window, above HKZ_MAX_DIM rows, the converged basis depends on the
start, so there the schedule is the plain one: a 3/4 pre-pass before
BKZ-10 weakened the k = 15, N ~ 10^80 witness.

Both reducers return a ReducedBasis, which re-verifies size reduction and
the Lovasz condition on a fresh integer GSO of the output rows
(lattice.integral_gso, from the rows alone, not the reducer's d and lam)
and keeps that pass's exact profile d[i+1]/d[i] and Gram determinant d[n]:
the only exact GSO a certificate needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import lattice
from .lattice import (
    GramSchmidtProfile,
    LatticeBasis,
    Row,
    as_rows,
    canonical_sign,
    enumerate_block,
    fraction_gso,  # perfbench/tracer.py binds reduction.fraction_gso by getattr
    round_half_up,
    update_integral_gso,
)

DEFAULT_DELTA = Fraction(99, 100)
# The first LLL pass of a targeted bkz: a weaker Lovasz condition, so fewer
# swaps before the DEFAULT_DELTA pass, which then starts from shorter rows.
PRECONDITION_DELTA = Fraction(3, 4)
DEFAULT_BLOCK_SIZE = 10
# Up to this many rows, bkz's default window spans the whole basis, so its
# converged output is HKZ-reduced and, with ties and signs settled, the same
# rows from any start.  The largest dimension at which that weakened no
# witness of scripts/hkz_sweep.py (BENCH_hkz_sweep.json: 42 scales per
# dimension, 10^10 to 10^100 and the pool's); at 17 to 20 rows it did.
HKZ_MAX_DIM = 16
# The settings as every CLI report prints them, under defaults.reduction.
SETTINGS = {"delta": str(DEFAULT_DELTA), "precondition_delta": str(PRECONDITION_DELTA),
            "block_size": DEFAULT_BLOCK_SIZE, "hkz_max_dim": HKZ_MAX_DIM}


class ReductionError(RuntimeError):
    """Reduction ran out of its swap or tour budget, or failed verification."""


@dataclass(frozen=True)
class ReducedBasis:
    """Rows that verify_reduced accepts, with the profile it computed from
    them, so no other basis's profile can be attached."""

    rows: tuple[Row, ...]
    swaps: int  # LLL swaps over the whole reduction
    tours: int = field(default=0, kw_only=True)  # BKZ tours begun; 0 for LLL alone
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
        if 2 * abs(self.lam[k][j]) > self.d[j + 1]:
            self._subtract(k, j, round_half_up(self.lam[k][j], self.d[j + 1]))

    def _subtract(self, k: int, j: int, q: int) -> None:
        """rows[k] -= q * rows[j], for j < k, with lam[k] kept current."""
        lam = self.lam
        self.rows[k] = [a - q * b for a, b in zip(self.rows[k], self.rows[j])]
        for t in range(j):
            lam[k][t] -= q * lam[j][t]
        lam[k][j] -= q * self.d[j + 1]

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

    def reduce(self, k: int = 1, delta: Fraction = DEFAULT_DELTA) -> None:
        """LLL with this delta from row k on; the rows before k must be reduced."""
        num, den = delta.numerator, delta.denominator
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

    def normalize(self) -> None:
        """Fix what HKZ reduction leaves free, so the rows depend on the
        lattice alone: each row's sign, so that its Gram-Schmidt vector's first
        nonzero entry is positive, and its size reduction, with every
        mu[i][j] in [-1/2, 1/2) rather than [-1/2, 1/2].  Neither changes a
        Gram-Schmidt norm, so the rows stay DEFAULT_DELTA-reduced."""
        lam, d, n = self.lam, self.d, self.n
        gs = lattice.projected_rows(self.rows, d, lam, n)
        for i in range(n):
            if canonical_sign(tuple(gs[i])) != tuple(gs[i]):
                self.rows[i] = [-a for a in self.rows[i]]
                for j in range(i):
                    lam[i][j] = -lam[i][j]
                for t in range(i + 1, n):
                    lam[t][i] = -lam[t][i]
            for j in range(i - 1, -1, -1):
                q = round_half_up(lam[i][j], d[j + 1])
                if q:
                    self._subtract(i, j, q)

    def min_norm_sq(self) -> Fraction:
        """min d[i+1]/d[i] as the verified profile computes it; needs kmax = n - 1."""
        return GramSchmidtProfile.from_d(self.d).min_norm_sq


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
    basis: "LatticeBasis | Sequence[Sequence[int]]",
    *,
    until: Callable[[Fraction], bool] | None = None,
) -> ReducedBasis:
    """Block reduction: LLL, then sliding-window exact enumeration.

    The window follows from the basis: it spans all n rows up to
    HKZ_MAX_DIM and is DEFAULT_BLOCK_SIZE above that.  Without until, on
    return each window of consecutive Gram-Schmidt projected vectors starts
    with a vector achieving the exact projected shortest length: tours
    repeat until one makes no change, and ReductionError is raised if
    _tour_budget tours pass without that.  enumerate_block settles ties
    between equally short vectors by their projections, so its pick depends
    on the window's lattice alone.

    Where the window spans the basis, the windows [i, n) are the whole
    projected lattices, so the converged rows are HKZ-reduced.  There a
    window whose row only ties the shortest also takes enumerate_block's
    pick, and the converged rows are normalized (_IntegralLLL.normalize), so
    they are the same from any start: the LLL first runs at
    PRECONDITION_DELTA, which only saves swaps.  A narrower window inserts
    only a strictly shorter vector, since its result depends on where the
    LLL left the rows anyway: on 2244 stress reductions (random bases at
    every window, k = 2..30 at N = 10^3..10^24), inserting ties there too
    changed 153 outputs of the coefficient tie rule, and the projection tie
    rule alone 16.  Without until it runs at DEFAULT_DELTA alone.

    With until, a predicate on the exact minimum squared Gram-Schmidt norm,
    the LLL first runs at PRECONDITION_DELTA and then at DEFAULT_DELTA, and
    bkz returns the first state whose minimum passes until: checked after
    the LLL (tours = 0 if it passes there) and after each insertion's
    re-reduction.  That state is DEFAULT_DELTA-reduced but its windows need
    not be optimal.  If no state passes, the result is the converged one.
    """
    state = _IntegralLLL(as_rows(basis))
    n = state.n
    block_size = n if n <= HKZ_MAX_DIM else DEFAULT_BLOCK_SIZE
    spanning = block_size >= n
    if until is not None or spanning:
        state.reduce(delta=PRECONDITION_DELTA)
    state.reduce()

    def result(tours: int) -> ReducedBasis:
        return ReducedBasis(tuple(map(tuple, state.rows)), state.swaps, tours=tours)

    if until is not None and until(state.min_norm_sq()):
        return result(0)
    tours = _tour_budget(n)
    for tour in range(1, tours + 1):
        changed = False
        for i in range(n - 1):
            m = min(block_size, n - i)
            # A strictly smaller q than the window's first row's d[i+1] is a
            # shorter vector; a spanning window also takes a tie's pick.
            coeffs, q = enumerate_block(state.rows, state.d, state.lam, i, i + m)
            if q == state.d[i + 1] and not (spanning and any(coeffs[1:])):
                continue
            state.rows[i : i + m] = complete_to_unimodular(coeffs, state.rows[i : i + m])
            update_integral_gso(state.rows, state.d, state.lam, i, i + m)
            state.reduce(max(i, 1))
            changed = True
            if until is not None and until(state.min_norm_sq()):
                return result(tour)
        if not changed:
            if spanning:
                state.normalize()
            return result(tour)
    raise ReductionError(f"BKZ windows still improving after {tours} tours")


def windows_are_shortest(rows: Sequence[Row], block_size: int) -> bool:
    """Whether each window [i, i + block_size) of the rows' fresh integer
    GSO starts with a shortest projected vector of the window: bkz's
    postcondition without until.  A block_size of len(rows) or more asks
    whether the rows are HKZ-reduced."""
    d, lam = lattice.integral_gso(rows)
    n = len(rows)
    return all(
        enumerate_block(rows, d, lam, i, min(i + block_size, n))[1] == d[i + 1]
        for i in range(n - 1)
    )


def reduced_profile(reduced: ReducedBasis) -> GramSchmidtProfile:
    """Exact Gram-Schmidt profile of a reduced basis, as verification computed it."""
    return reduced.profile
