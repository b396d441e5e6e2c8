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
eager update would have given it, and every decision is the same.  A swap
exchanges the two lam rows as list objects and updates both columns of each
later row over the one divisor d[k]; size reduction is inline in reduce,
and every bkz output has every mu in [-1/2, 1/2).

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
would only cost time.  That path first runs one LLL pass at 3/4, the
last of PRECONDITION_DELTAS, which needs fewer swaps, and then the
DEFAULT_DELTA pass on the same state; the target is checked, on
GramSchmidtProfile.from_d of the reducer's own d (the minimum the verified
profile reads), after that pass and after each insertion's re-reduction, so
every state it sees is DEFAULT_DELTA-reduced.

Without a target the pre-pass runs only where the window spans the basis,
and there it is the whole ladder PRECONDITION_DELTAS = 3/10, 1/2, 3/4: at
3/10 a swap must shrink d[k] by a factor 10/3, not 4/3, so the cheap early
passes leave the later ones little to do (k = 15 at N = 10^80: 1317 swaps,
against 2286 after the 3/4 pass alone).  BKZ with such a window converges
to an HKZ-reduced basis (Kannan, STOC 1983; Schnorr-Euchner, Math.
Programming 1994): each row's projection is a shortest vector of the
lattice projected orthogonally to the rows before it, and the row is
size-reduced, by the kernel's rule.  That leaves two things to the start:
which of several equally short projections a row takes, and its sign.  bkz
settles both.  A spanning window also replaces a row that only ties the
shortest projection, by enumerate_block's pick, the tie whose projection
d[i] * pi_i(v), signed to start positive, is lexicographically smallest;
and on convergence _IntegralLLL.normalize signs each row by its
Gram-Schmidt vector.  The rows returned are then a function of the lattice
alone, so where the LLL started, and with which deltas, changes only the
swaps and tours it takes.
With a narrower window, above HKZ_MAX_DIM rows, the converged basis depends
on the start, so there the schedule is the plain one: a 3/4 pre-pass before
BKZ-10 moved 10 witnesses weaker and 10 stronger of 70 at k = 16..22.  A
targeted bkz keeps the one 3/4 pass at every size: the ladder there moved
two of the benchmark's 96 scale searches (k = 14) a power of ten weaker.

enumerate_shortest is the same LLL ladder and one enumerate_block over
the whole basis, so HKZ_MAX_DIM bounds every complete enumeration.  Every
LLL run is one schedule, _lll: on one _IntegralLLL state, a pass at each
delta given (the ladder, its last step or none), then at DEFAULT_DELTA.

bkz returns a ReducedBasis, which re-verifies size reduction and the
Lovasz condition on a fresh integer GSO of the output rows
(lattice.integral_gso, from the rows alone, not the reducer's d and lam)
and keeps that pass's exact profile d[i+1]/d[i] and Gram determinant d[n]:
the only exact GSO a certificate needs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

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
from .squarefree import quoted_fraction, quoted_int

DEFAULT_DELTA = Fraction(99, 100)
# LLL passes before the DEFAULT_DELTA pass, each a weaker Lovasz condition
# than the next, so each needs fewer swaps and hands shorter rows on.  A
# spanning bkz without a target and enumerate_shortest run them all, since
# their output does not depend on the start; a targeted bkz runs only the
# last, 3/4.  Every delta is above 1/4, so every pass terminates.
PRECONDITION_DELTAS = (Fraction(3, 10), Fraction(1, 2), Fraction(3, 4))
DEFAULT_BLOCK_SIZE = 10
# Up to this many rows, bkz's default window spans the whole basis, so its
# converged output is HKZ-reduced and, with ties and signs settled, the same
# rows from any start.  The largest dimension at which that weakened no
# witness of scripts/hkz_sweep.py (BENCH_hkz_sweep.json: 42 scales per
# dimension, 10^10 to 10^100 and the pool's); at 17 to 20 rows it did.
HKZ_MAX_DIM = 16
# The settings as every CLI report prints them, under defaults.reduction.
SETTINGS = {"delta": str(DEFAULT_DELTA), "precondition_delta": str(PRECONDITION_DELTAS[-1]),
            "hkz_precondition_deltas": [str(delta) for delta in PRECONDITION_DELTAS],
            "block_size": DEFAULT_BLOCK_SIZE, "hkz_max_dim": HKZ_MAX_DIM}


class ReductionError(RuntimeError):
    """Reduction ran out of its swap or tour budget, or failed verification."""


class _ReducedBasisFields(NamedTuple):
    rows: tuple[Row, ...]
    swaps: int  # LLL swaps over the whole reduction
    tours: int  # BKZ tours begun; 0 for LLL alone
    profile: GramSchmidtProfile


class ReducedBasis(_ReducedBasisFields):
    """Rows that verify_reduced accepts, with the profile it computed from
    them, so no other basis's profile can be attached."""

    __slots__ = ()

    def __new__(cls, rows: tuple[Row, ...], swaps: int, *, tours: int = 0) -> "ReducedBasis":
        # verify_reduced looked up now: perfbench wraps it
        return super().__new__(cls, rows, swaps, tours, verify_reduced(rows))

    @classmethod
    def _make(cls, fields: Iterable) -> "ReducedBasis":
        """As _replace builds: the rows verified again, any profile given dropped."""
        rows, swaps, tours, _ = fields
        return cls(rows, swaps, tours=tours)

    def __getnewargs_ex__(self):  # copy and pickle build through __new__ too
        return (self.rows, self.swaps), {"tours": self.tours}


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

    def _swap(self, k: int) -> None:
        """Exchange rows k-1 and k (Cohen, Algorithm 2.6.7).  Both columns of
        a later row i, l = lam[i][k-1] and t = lam[i][k], are updated over
        the one divisor d[k]: Cohen's second division, (B*t + lam_mid *
        lam[i][k]) / d[k+1] with B the new d[k] and lam[i][k] already
        updated, is the same rational as (d[k-1]*t + lam_mid*l) / d[k], so
        both divisions are exact and give the same integers."""
        lam, d, rows = self.lam, self.d, self.rows
        rows[k], rows[k - 1] = rows[k - 1], rows[k]
        # Columns before k-1 swap with the rows; lam[k][k-1] stays, and row
        # k-1's diagonal slot (always 0) goes back to it.
        lam[k], lam[k - 1] = lam[k - 1], lam[k]
        lam[k][k - 1], lam[k - 1][k - 1] = lam[k - 1][k - 1], lam[k][k - 1]
        lam_mid = lam[k][k - 1]
        d_prev, d_k, d_next = d[k - 1], d[k], d[k + 1]
        for lam_i in lam[k + 1 : self.kmax + 1]:
            l, t = lam_i[k - 1], lam_i[k]
            lam_i[k] = (d_next * l - lam_mid * t) // d_k
            lam_i[k - 1] = (d_prev * t + lam_mid * l) // d_k
        d[k] = (d_prev * d_next + lam_mid * lam_mid) // d_k

    def reduce(self, k: int = 1, delta: Fraction = DEFAULT_DELTA) -> None:
        """LLL with this delta from row k on; the rows before k must be reduced.

        Size reduction is inline: round_half_up(x, d) rows go exactly when
        that is nonzero, x < -h or x >= d - h with h = d >> 1, so every mu
        lands in [-1/2, 1/2), and row k is written once after it."""
        num, den = delta.numerator, delta.denominator
        lam, d, rows = self.lam, self.d, self.rows
        while k < self.n:
            if k > self.kmax:
                self._extend(k)
                self.kmax = k
            lam_k, d_k = lam[k], d[k]
            x, h = lam_k[k - 1], d_k >> 1
            if x < -h or x >= d_k - h:
                q = round_half_up(x, d_k)
                lam_j = lam[k - 1]
                for t in range(k - 1):
                    lam_k[t] -= q * lam_j[t]
                x = lam_k[k - 1] = x - q * d_k
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[k - 1])]
            if den * (d[k - 1] * d[k + 1] + x * x) < num * d_k * d_k:
                self._swap(k)
                self.swaps += 1
                if self.swaps > self.max_swaps:
                    raise ReductionError(f"swap budget exhausted after {self.swaps} swaps")
                k = max(k - 1, 1)
            else:
                row = rows[k]
                for j in range(k - 2, -1, -1):
                    x, d_j = lam_k[j], d[j + 1]
                    h = d_j >> 1
                    if x < -h or x >= d_j - h:
                        q = round_half_up(x, d_j)
                        lam_j = lam[j]
                        for t in range(j):
                            lam_k[t] -= q * lam_j[t]
                        lam_k[j] = x - q * d_j
                        row = [a - q * b for a, b in zip(row, rows[j])]
                rows[k] = row
                k += 1

    def normalize(self) -> None:
        """Sign each row so that its Gram-Schmidt vector's first nonzero entry
        is positive, the one thing HKZ reduction leaves free, then let reduce
        move each mu that a flip left at +1/2 to -1/2: neither step changes a
        d[i] or a mu^2, so that pass swaps nothing and the rows stay reduced."""
        lam, n = self.lam, self.n
        gs = lattice.projected_rows(self.rows, self.d, lam, n)
        for i in range(n):
            if canonical_sign(tuple(gs[i])) != tuple(gs[i]):
                self.rows[i] = [-a for a in self.rows[i]]
                for j in range(i):
                    lam[i][j] = -lam[i][j]
                for t in range(i + 1, n):
                    lam[t][i] = -lam[t][i]
        self.reduce()

    def min_norm_sq(self) -> Fraction:
        """min d[i+1]/d[i] as the verified profile computes it; needs kmax = n - 1."""
        return GramSchmidtProfile.from_d(self.d).min_norm_sq


def _lll(rows: Sequence[Sequence[int]], deltas: Sequence[Fraction] = ()) -> _IntegralLLL:
    """The LLL state of the rows after a pass at each of deltas in turn and
    then at DEFAULT_DELTA: the one schedule of every LLL run."""
    state = _IntegralLLL(rows)
    for delta in (*deltas, DEFAULT_DELTA):
        state.reduce(delta=delta)
    return state


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
                mu = quoted_fraction(Fraction(lam[i][j], d[j + 1]))
                raise ReductionError(f"size reduction violated at ({i}, {j}): mu = {mu}")
    p, q = DEFAULT_DELTA.numerator, DEFAULT_DELTA.denominator
    for k in range(1, n):
        if p * d[k] * d[k] > q * (d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2):
            raise ReductionError(f"Lovasz condition violated between rows {k - 1} and {k}")
    return GramSchmidtProfile.from_d(d)


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
        raise ValueError(f"vector is not primitive (gcd {quoted_int(abs(y[p]))})")
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
    they are the same from any start: the LLL first runs at each of
    PRECONDITION_DELTAS in turn, which only saves swaps.  A narrower window
    inserts only a strictly shorter vector, since its result depends on
    where the LLL left the rows anyway: on 2244 stress reductions (random
    bases at every window, k = 2..30 at N = 10^3..10^24), inserting ties
    there too changed 153 outputs of the coefficient tie rule, and the
    projection tie rule alone 16.  Without until its LLL runs at
    DEFAULT_DELTA alone.

    With until, a predicate on the exact minimum squared Gram-Schmidt norm,
    the LLL first runs at the last of PRECONDITION_DELTAS (3/4) alone and
    then at DEFAULT_DELTA, at any number of rows, and
    bkz returns the first state whose minimum passes until: checked after
    the LLL (tours = 0 if it passes there) and after each insertion's
    re-reduction.  That state is DEFAULT_DELTA-reduced but its windows need
    not be optimal.  If no state passes, the result is the converged one.
    """
    rows = as_rows(basis)
    n = len(rows)
    block_size = n if n <= HKZ_MAX_DIM else DEFAULT_BLOCK_SIZE
    spanning = block_size >= n
    if until is not None:
        ladder = PRECONDITION_DELTAS[-1:]
    else:
        ladder = PRECONDITION_DELTAS if spanning else ()
    state = _lll(rows, ladder)

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


class ShortestVector(NamedTuple):
    vector: Row
    norm_sq: Fraction


def enumerate_shortest(basis: "LatticeBasis | Sequence[Sequence[int]]") -> ShortestVector:
    """Exact shortest nonzero vector of at most HKZ_MAX_DIM rows: the LLL
    (at each of PRECONDITION_DELTAS, then DEFAULT_DELTA), so the search does
    not grow with how unreduced the input is, then one complete enumeration
    within the first reduced row.  Of several shortest vectors the one
    returned is the smallest after canonical_sign, and it is returned signed
    so: a function of the lattice alone."""
    rows = as_rows(basis)
    n = len(rows)
    if n > HKZ_MAX_DIM:
        raise ValueError(f"{n} rows exceed HKZ_MAX_DIM = {HKZ_MAX_DIM}")
    state = _lll(rows, PRECONDITION_DELTAS)
    # d[0] = 1, so q is the squared norm itself
    coeffs, norm = enumerate_block(state.rows, state.d, state.lam, 0, n)
    vec = tuple(sum(c * row[j] for c, row in zip(coeffs, state.rows)) for j in range(len(rows[0])))
    return ShortestVector(canonical_sign(vec), Fraction(norm))


def reduced_profile(reduced: ReducedBasis) -> GramSchmidtProfile:
    """Exact Gram-Schmidt profile of a reduced basis, as verification computed it."""
    return reduced.profile
