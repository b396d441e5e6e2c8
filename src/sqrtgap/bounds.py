"""Lower-bound certification, constructive upper bounds, and baselines.

Write G(k) for the minimum positive value of |e_1*sqrt(s_1) + ... +
e_k*sqrt(s_k) - t| over integers t, signs e_i in {1, 0, -1}, and positive
integers s_i up to the k-th square-free integer.  The certification route:

  * any such expression rewrites over the square-free basis as
    sum(a_i * sqrt(sf_i)) - b with sum|a_i| <= k*sqrt(sf_k) and
    sum(a_i^2) <= k^2 * sf_k;
  * the lattice row (sum a_i [N*sqrt(sf_i)] - b*N, a_1, ..., a_k) then has
    squared length at least lambda^2, the squared length of the shortest
    nonzero lattice vector;
  * if lambda^2 exceeds T = (1 + k*sqrt(sf_k)/2)^2 + k^2*sf_k, unwinding the
    rounding errors [N*sqrt(s)] - N*sqrt(s) in the first coordinate forces
    |sum(a_i*sqrt(sf_i)) - b| >= 1/N;
  * the library clears a rational bar just above T instead, sqrt(sf_k)
    rounded up once (certification_threshold), so both the certificate's
    test and the determinant floor are one exact rational decision.

A certificate's soundness rests on integers alone: the sieve (squarefree),
the rows and the exact Gram-Schmidt pass whose minimum bounds lambda from
below (lattice), the check that the reduced rows are a basis of the input
lattice, and the rational threshold.  It rests neither on exactnum, the
interval layer of witnesses, the oracle and qian-wang, nor on the LLL, BKZ
or the enumeration, which only choose the rows: their quality only affects
how small an N can be certified.  So a certificate reduces only until the
minimum clears the threshold (bkz's until, on the minimum the verified
profile reads), and BKZ converges only at scales where it never does.  The
witness and scan paths reduce without a target to convergence, since their
rows are the product: a stopped basis gives other rows.  Up to k = 15
(reduction.HKZ_MAX_DIM rows) bkz's window spans the basis, so those rows
are HKZ-reduced, with ties and signs settled by rule, the same from any
start, and the LLL ladder PRECONDITION_DELTAS saves swaps without changing
them (a certificate runs its last pass, 3/4, alone).  Above it BKZ-10 runs
from the plain 99/100 LLL, because there a pre-pass changes the rows (after
a 3/4 pass BKZ-10 moved 20 of 70 witnesses at k = 16..22, 10 weaker).
In the other direction, any short reduced row yields a concrete integer
combination with |sum(a_i*sqrt(sf_i)) - b| at most (|s| + sum|a_i|/2) / N,
a constructive upper bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, NamedTuple, Optional, Sequence

from . import squarefree
from .exactnum import Enclosure, RadicalSum, abs_at_most, compare_abs
from .exactnum import enclose_radical_sum  # perfbench/tracer.py binds bounds.enclose_radical_sum by getattr
from .lattice import BASIS_MAX_BITS, LatticeBasis, Row, build_basis, check_basis_size
from .reduction import ReducedBasis, ReductionError, bkz, reduced_profile
from .squarefree import quoted_fraction, quoted_int

DEFAULT_STEP = 10**5
DEFAULT_MAX_ITERS = 200
# Largest qian-wang k, checked before any binomial: the coefficients alone
# take about k^2/2 bits, so k = 10^6 would need about 62 GB.
QIAN_WANG_MAX_K = 4096
# Largest predicted qian-wang precision, k - log2(rhs) bits (the coefficients sum to
# 2^k): the deciding rung lies within about 70 bits above it, so all decide by 8192.
QIAN_WANG_MAX_BITS = 8000


class NoCertificateError(RuntimeError):
    """The scale search tried DEFAULT_MAX_ITERS scales (not settable) without
    certifying a bound."""


class Threshold(NamedTuple):
    """The certification bar: a basis certifies when its minimum squared
    Gram-Schmidt norm exceeds value, one exact Fraction comparison."""

    value: Fraction

    def exceeded_by(self, x: Fraction | int) -> bool:
        return x > self.value

    def unreachable(self, det: int, dim: int) -> bool:
        """True when det^2 <= value^dim: then no basis of a dim-dimensional
        lattice of determinant det has a minimum squared Gram-Schmidt norm
        above value, since the dim squared norms multiply to det^2.

        All-integer: with value = num/den it tests det^2 * den^dim <= num^dim,
        on the very number exceeded_by compares with, so the floor is exact.
        The floor belongs to the minimum-Gram-Schmidt rule only.  A
        certificate from an exact shortest vector must use Hermite's bound
        gamma_dim * det^(2/dim) on lambda_1^2 instead: a complete enumeration
        puts lambda_1^2 above the threshold at k = 40, N = 10^104, below this
        floor's 10^104.99.
        """
        num, den = self.value.numerator, self.value.denominator
        return det * det * den**dim <= num**dim

    def approx(self) -> float:
        return float(self.value)


def certification_threshold(k: int) -> Threshold:
    """Squared-length bar the shortest lattice vector must clear for level k.

    T = (1 + k*sqrt(s)/2)^2 + k^2*s = 1 + (5/4)*k^2*s + k*sqrt(s), with s the
    k-th square-free integer, is irrational; the bar is the rational T_hi
    with sqrt(s) rounded up to (isqrt(s * 2^128) + 1) / 2^64, s >= 2 being
    square-free and so no square: T < T_hi <= T + k*2^-64, and a norm above
    T_hi is above T, so clearing the higher bar certifies as well.
    """
    s = squarefree.nth_squarefree(k)
    root_hi = Fraction(math.isqrt(s << 128) + 1, 1 << 64)
    return Threshold(1 + Fraction(5, 4) * k * k * s + k * root_hi)


class LowerBoundCertificate(NamedTuple):
    """A certificate's numbers; its verdict is derived from them, never stored."""

    k: int
    scale: int  # the certified bound is 1/scale
    min_gs_norm_sq: Fraction
    threshold: Threshold
    swaps: int  # LLL swaps of the reduction the certificate comes from
    tours: int  # BKZ tours it began; 0 where LLL alone cleared the threshold

    @property
    def sigma_k(self) -> int:
        return squarefree.nth_squarefree(self.k)

    @property
    def difference(self) -> Fraction:
        return self.min_gs_norm_sq - self.threshold.value

    @property
    def threshold_passed(self) -> bool:
        return self.threshold.exceeded_by(self.min_gs_norm_sq)

    @property
    def below_floor(self) -> bool:
        """Whether the determinant floor decides this level-k lattice (det N, dim k + 1)."""
        return self.threshold.unreachable(self.scale, self.k + 1)


def _reduce_checked(
    k: int,
    scale: int,
    start: Sequence[Row] | None = None,
    until: Callable[[Fraction], bool] | None = None,
) -> tuple[LatticeBasis, ReducedBasis, tuple[Row, ...]]:
    """Block-reduce the level-k lattice at this scale, stopping where the
    minimum Gram-Schmidt norm passes until (bkz's until), and check that
    the reduced rows generate exactly that lattice.

    Without start, the reduction starts from the lattice's own basis.  With
    start, the coordinates of another basis of this level's lattice at any
    scale, it starts from their vectors here (LatticeBasis.vector), since a
    reduced basis lifted to a nearby scale is nearly reduced.

    Every row must have integer coordinates in the input basis, so the rows
    span a sublattice, and their Gram determinant, d[n] of the verification
    pass that also gave the profile, must equal the input's, scale^2: a
    full-rank sublattice of the same determinant is the lattice itself.
    Raises ReductionError otherwise, so nothing is ever derived from rows
    that are not a basis of the lattice, whatever the reducer did.  Returns
    the basis, the reduction and the coordinates of its rows.  The public
    caller checks k and scale before any sieve; build_basis checks again.
    """
    basis = build_basis(squarefree.squarefree_upto(k), scale)
    # bkz's first argument is positional: perfbench's tracer reads args[0].
    reduced = bkz(basis if start is None else [basis.vector(c) for c in start], until=until)
    try:
        coords = tuple(basis.coordinates(row) for row in reduced.rows)
    except ValueError:
        raise ReductionError("a reduced row is not a vector of the input lattice") from None
    if len(reduced.rows) != basis.dim or reduced.profile.gram_det != scale * scale:
        raise ReductionError("reduced rows span a proper sublattice of the input lattice")
    return basis, reduced, coords


def _certify(
    k: int, scale: int, threshold: Threshold, start: Sequence[Row] | None = None
) -> tuple[LowerBoundCertificate, tuple[Row, ...] | None]:
    """certify_lower_bound against threshold, reducing from start as
    _reduce_checked does; also returns the coordinates of the reduced rows,
    or None where the determinant floor decided the scale without a reduction."""
    if threshold.unreachable(scale, k + 1):
        # the input basis decides: its squared Gram-Schmidt norms are N^2, 1, ..., 1
        min_norm, swaps, tours, coords = Fraction(1), 0, 0, None
    else:
        _, reduced, coords = _reduce_checked(k, scale, start, threshold.exceeded_by)
        min_norm, swaps, tours = reduced_profile(reduced).min_norm_sq, reduced.swaps, reduced.tours
    cert = LowerBoundCertificate(
        k=k,
        scale=scale,
        min_gs_norm_sq=min_norm,
        threshold=threshold,
        swaps=swaps,
        tours=tours,
    )
    return cert, coords


def certify_lower_bound(k: int, scale: int) -> LowerBoundCertificate:
    """Attempt to certify G(k) >= 1/scale at the given scale.

    Builds the lattice over the first k square-free integers, reduces it
    until its exact minimum Gram-Schmidt norm exceeds the certification
    threshold (one exact Fraction comparison), and certifies from the basis
    where that first happens: after the LLL (tours 0) or after some BKZ
    insertion.  The minimum of any basis bounds the shortest vector from
    below, so the first basis that clears the threshold certifies as well
    as a converged one.  Only where no state passes does BKZ run to
    convergence, and then the certificate has threshold_passed False: a
    failed attempt, not an error; the exact norm it carries shows how far
    the comparison missed.

    Below the determinant floor (Threshold.unreachable) no basis clears the
    threshold, so nothing is built or reduced: the certificate is the input
    basis's, with min_gs_norm_sq 1 and swaps = tours = 0.
    """
    check_basis_size(k, scale)  # every input limit before the threshold's sieve
    return _certify(k, scale, certification_threshold(k))[0]


def find_lower_bound(
    k: int,
    *,
    step: int = DEFAULT_STEP,
    start_scale: int | None = None,
    progress: Callable[[LowerBoundCertificate], None] | None = None,
) -> LowerBoundCertificate:
    """Grow the scale geometrically until a lower bound certifies.

    Scales start at start_scale (default 10**(2k), which skips the small
    scales that cannot certify) and multiply by step until the exact
    threshold comparison passes.  Returns the first passing certificate;
    raises NoCertificateError after DEFAULT_MAX_ITERS scales (progress has
    seen every failed certificate by then).

    Each probe after the first is warm-started: the previous probe's
    reduced rows, lifted to the new scale through their integer
    coordinates, are the rows the reduction starts from (van Hoeij's
    gradual feeding).  A probe below the determinant floor reduces
    nothing and leaves no rows, so the first probe above it starts cold.
    Every probe, warm or not, checks that its rows are a
    basis of its lattice and verifies the reduction on a fresh integer GSO
    of the output rows, so soundness does not depend on the start.  A
    probe reduces another basis than certify_lower_bound at the same scale,
    so its min_gs_norm_sq may differ and, above 16 rows, its verdict too
    (k = 40 at 10^115 fails warm and passes cold); both are sound.
    """
    if step < 2:
        raise ValueError(f"step must be >= 2, got {quoted_int(step)}")
    # Before the sieve and the 10^(2k) default start.  build_basis checks a grown
    # scale; one the floor decides lies inside BASIS_MAX_BITS for every k.
    check_basis_size(k, 1 if start_scale is None else start_scale)
    scale = 10 ** (2 * k) if start_scale is None else start_scale
    threshold, coords = certification_threshold(k), None
    for _ in range(DEFAULT_MAX_ITERS):
        cert, coords = _certify(k, scale, threshold, coords)
        if progress is not None:
            progress(cert)
        if cert.threshold_passed:
            return cert
        scale *= step
    raise NoCertificateError(
        f"no certificate for k={k} in DEFAULT_MAX_ITERS = {DEFAULT_MAX_ITERS} scales"
        f" (last N = {quoted_int(scale // step)})"
    )


def _row_inequality_rhs(first: int, coeffs: Sequence[int], scale: int) -> Fraction:
    """(|s| + sum|a_i|/2) / scale for the lattice row (s, a_1, ..., a_k)."""
    return Fraction(2 * abs(first) + sum(abs(a) for a in coeffs), 2 * scale)


class UpperBoundWitness(NamedTuple):
    """A lattice row certifying a small positive value of the radical sum.

    (first_coord, coefficients) is a vector of the lattice at this scale;
    offset is the integer b recovered from the first coordinate, and bound
    is the deciding enclosure of |sum(a_i * sqrt(sf_i)) - b|.  n_effective
    = max(a_i^2 * sf_i) is the height whose minimum gap it bounds above.
    """

    coefficients: tuple[int, ...]
    offset: int
    radicands: tuple[int, ...]
    scale: int
    first_coord: int
    value: RadicalSum
    bound: Enclosure
    n_effective: int
    # LLL swaps and BKZ tours of the reduction the row comes from; 0 for a
    # row given to row_witness directly
    swaps: int = 0
    tours: int = 0

    def row_inequality_rhs(self) -> Fraction:
        return _row_inequality_rhs(self.first_coord, self.coefficients, self.scale)


def row_witness(basis: LatticeBasis, row: Sequence[int]) -> Optional[UpperBoundWitness]:
    """Convert one lattice row into an upper-bound witness.

    Returns None when every radical coefficient vanishes (rows proportional
    to the all-zero-tail generator carry no information).  The stored bound
    is the enclosure of |value| at the exactnum.refine rung that decided the
    row inequality |value| <= (|s| + sum|a_i|/2)/scale.
    """
    first = row[0]
    coeffs = tuple(row[1:])
    if not any(coeffs):
        return None
    offset = -basis.coordinates(row)[0]
    value = RadicalSum.from_terms(zip(coeffs, basis.radicands), offset=offset)
    rhs = _row_inequality_rhs(first, coeffs, basis.scale)
    holds, decided = abs_at_most(value, rhs * rhs)
    if not holds:  # mathematically impossible for a lattice row
        raise ArithmeticError(f"row inequality violated: |{value}| > {quoted_fraction(rhs)}")
    return UpperBoundWitness(
        coefficients=coeffs,
        offset=offset,
        radicands=basis.radicands,
        scale=basis.scale,
        first_coord=first,
        value=value,
        bound=decided,
        n_effective=max(a * a * s for a, s in zip(coeffs, basis.radicands) if a),
    )


def upper_bound_from_reduction(k: int, scale: int) -> UpperBoundWitness:
    """Best constructive upper-bound witness from one block reduction.

    Scans every reduced row with a nonzero coefficient vector and keeps the
    one whose certified |value| is smallest (exact comparison, escalating
    precision on enclosure overlap); any row satisfies the row inequality,
    but the shortest row is not always the best witness.
    """
    check_basis_size(k, scale)  # before the sieve, which k alone can make huge
    basis, reduced, _ = _reduce_checked(k, scale)
    # A zero-tail vector is a multiple of (scale, 0, ..., 0), so at most one of
    # the k + 1 >= 2 rows gives no witness; min keeps the first of equals.
    witnesses = (row_witness(basis, row) for row in reduced.rows)
    best = min((w for w in witnesses if w is not None), key=cmp_to_key(lambda a, b: compare_abs(a.value, b.value)))
    return best._replace(swaps=reduced.swaps, tours=reduced.tours)


def root_separation_log10(n: int, k: int, variant: str = "R") -> float:
    """Classic root-separation lower bound, as a base-10 logarithm.

    The gap is at least max(base**eneg1, base**eneg2) with base = k*sqrt(n)
    for the all-positive-signs variant ("r1") and base = 2k*sqrt(n) for the
    signed variant ("R"), and exponents -2**(k-1) and -2**(pi(n)-1); the max
    picks the smaller of the two exponents.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {quoted_int(n)}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {quoted_int(k)}")
    if variant not in ("r1", "R"):
        raise ValueError(f"variant must be 'r1' or 'R', got {variant!r}")
    factor = k if variant == "r1" else 2 * k
    base_log10 = math.log10(factor) + 0.5 * math.log10(n)
    # pi(8192) = 1028: any min(k, pi(n)) above 1024 overflows the double
    # exponent anyway, so primes past 8192 never change the result.
    e = min(k, squarefree.prime_count(min(n, 8192))) - 1
    try:  # ldexp is the exact product 2**e * base_log10, and raises where it overflows
        return -math.ldexp(base_log10, e)
    except OverflowError:
        raise ValueError(f"2**{e} * {base_log10:.6g} exceeds double range") from None


class QianWangInstance(NamedTuple):
    """The alternating binomial sum sum((-1)^i * C(k,i) * sqrt(t+i)) and its bound.

    The sum telescopes to something below (1*3*5*...*(2k-3)) / (2^k * t^(k-1/2)).
    rhs_sq is the exact square of that right-hand side, so the inequality
    |sum| <= rhs is exactnum.abs_at_most(value, rhs_sq).
    """

    k: int
    t: int
    value: RadicalSum
    rhs_sq: Fraction
    rhs_log10: float


def qian_wang_instance(k: int, t: int) -> QianWangInstance:
    """Build the alternating binomial instance at offset t.

    Radicands C(k,i)^2 * (t+i) are decomposed to square-free form inside
    RadicalSum, so perfect-square parts fold into the rational offset and
    shared square-free parts merge.
    """
    if not 2 <= k <= QIAN_WANG_MAX_K:
        raise ValueError(f"k must lie in [2, {QIAN_WANG_MAX_K}] (QIAN_WANG_MAX_K), got {quoted_int(k)}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {quoted_int(t)}")
    if t + k >= squarefree.DECOMPOSE_LIMIT:  # the radicands t .. t + k are decomposed
        raise ValueError(f"t + k must be below 2**64 (DECOMPOSE_LIMIT), got {(t + k).bit_length()} bits")
    odd_product = math.prod(range(1, 2 * k - 2, 2))
    rhs_log10 = math.log10(odd_product) - k * math.log10(2) - (k - 0.5) * math.log10(t)
    bits = k - rhs_log10 * math.log2(10)
    if bits > QIAN_WANG_MAX_BITS:
        raise ValueError(f"deciding |sum| <= rhs needs about {bits:.0f} bits > QIAN_WANG_MAX_BITS = {QIAN_WANG_MAX_BITS}")
    value = RadicalSum.from_terms(((-1) ** i * math.comb(k, i), t + i) for i in range(k + 1))
    rhs_sq = Fraction(odd_product * odd_product, 4**k * t ** (2 * k - 1))
    return QianWangInstance(k=k, t=t, value=value, rhs_sq=rhs_sq, rhs_log10=rhs_log10)


class RatioCell(NamedTuple):
    """One cell of the reduction-quality scan: lambda* against scale^(1/(k+1))."""

    k: int
    log10_scale: int
    shortest_row_norm_sq: int
    min_gs_norm_sq: Fraction
    ratio: float
    conjecture_violation: bool


def _ln_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _scan_cell(k: int, log10_scale: int) -> RatioCell:
    scale = 10**log10_scale
    _, reduced, _ = _reduce_checked(k, scale)
    min_norm = reduced_profile(reduced).min_norm_sq
    l_sq = min(sum(c * c for c in row) for row in reduced.rows)
    ratio = math.exp(0.5 * _ln_fraction(min_norm) - log10_scale * math.log(10) / (k + 1))
    # Exact certificate-side conjecture check: lambda* <= scale^(1/(k+1))/k
    # iff (lambda*^2 * k^2)^(k+1) <= scale^2.
    violation = (min_norm * k * k) ** (k + 1) <= scale * scale
    return RatioCell(k=k, log10_scale=log10_scale, shortest_row_norm_sq=l_sq, min_gs_norm_sq=min_norm,
                     ratio=ratio, conjecture_violation=violation)


def ratio_scan(k_list: Sequence[int], log10_scale_list: Sequence[int]) -> list[RatioCell]:
    """Reduce a grid of (k, scale) cells and report lambda*/scale^(1/(k+1)).

    Cells are independent and deterministic, and are returned in grid
    order.  A cell whose ratio falls at or below 1/k is flagged: that would
    contradict the expected shortest-vector growth on the certificate side
    (the reduced lambda* lower bound, not the true shortest length).
    Every cell's size is checked before the first reduction, and an
    exponent past BASIS_MAX_BITS before its power is formed; a
    ReductionError in any cell fails the whole scan, as it fails
    upper_bound_from_reduction.
    """
    if not k_list or not log10_scale_list:
        raise ValueError("k_list and log10_scale_list must be non-empty")
    for e in log10_scale_list:
        if e < 0:  # 10**e would be a float
            raise ValueError(f"log10 scale must be >= 0, got {quoted_int(e)}")
        if 3 * e >= BASIS_MAX_BITS:  # 10**e > 2**(3e): refused before it is formed
            raise ValueError(f"log10 scale {quoted_int(e)} puts 10^e past BASIS_MAX_BITS = {BASIS_MAX_BITS}")
    for k in k_list:
        for e in log10_scale_list:
            check_basis_size(k, 10**e)
    return [_scan_cell(k, e) for k in k_list for e in log10_scale_list]
