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
  * if lambda^2 exceeds (1 + k*sqrt(sf_k)/2)^2 + k^2*sf_k, unwinding the
    rounding errors [N*sqrt(s)] - N*sqrt(s) in the first coordinate forces
    |sum(a_i*sqrt(sf_i)) - b| >= 1/N.

The reduction pipeline only ever certifies a lower bound on lambda via the
minimum Gram-Schmidt norm of a reduced basis, and first checks from the rows
alone that they are a basis of the input lattice, so every certificate here
is sound regardless of reduction quality; quality only affects how small an
N can be certified.  In the other direction, any short reduced row yields a
concrete integer combination with |sum(a_i*sqrt(sf_i)) - b| at most
(|s| + sum|a_i|/2) / N, a constructive upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import squarefree
from .exactnum import (
    Enclosure,
    RadicalSum,
    compare_abs,
    enclose_radical_sum,
    refine,
)
from .lattice import BASIS_MAX_DIM, LatticeBasis, Row, build_basis
from .reduction import ReducedBasis, ReductionError, bkz, reduced_profile

DEFAULT_STEP = 10**5
DEFAULT_MAX_ITERS = 200
# Largest qian-wang k, checked before any binomial: the coefficients alone
# take about k^2/2 bits, so k = 10^6 would need about 62 GB.
QIAN_WANG_MAX_K = 4096


class NoCertificateError(RuntimeError):
    """The scale search ran out of iterations without certifying a bound."""

    def __init__(self, message: str, last_certificate=None):
        super().__init__(message)
        self.last_certificate = last_certificate


@dataclass(frozen=True)
class SqrtThreshold:
    """Exact comparator against the value rational_part + coeff*sqrt(radicand).

    The radicand is square-free and >= 2, so the radical is irrational and a
    rational x never equals the threshold; x exceeds it iff
    x - rational_part > 0 and (x - rational_part)^2 > coeff^2 * radicand,
    both checks on rationals.
    """

    rational_part: Fraction
    radical_coeff: int
    radicand: int

    def exceeded_by(self, x: Fraction | int) -> bool:
        d = Fraction(x) - self.rational_part
        if d <= 0:
            return False
        return d * d > self.radical_coeff**2 * self.radicand

    def approx(self) -> float:
        return float(self.rational_part) + self.radical_coeff * math.sqrt(self.radicand)


def certification_threshold(k: int) -> SqrtThreshold:
    """Squared-length bar the shortest lattice vector must clear for level k.

    (1 + k*sqrt(s)/2)^2 + k^2*s expands to 1 + k*sqrt(s) + (5/4)*k^2*s with
    s the k-th square-free integer; isolating the single radical keeps the
    comparison with rational squared norms exact.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    s = squarefree.nth_squarefree(k)
    return SqrtThreshold(1 + Fraction(5, 4) * k * k * s, k, s)


@dataclass(frozen=True)
class LowerBoundCertificate:
    k: int
    sigma_k: int
    scale: int  # the certified bound is 1/scale
    min_gs_norm_sq: Fraction
    threshold: SqrtThreshold
    difference: Fraction  # min_gs_norm_sq - threshold.rational_part
    threshold_passed: bool


def _reduce_checked(
    k: int, scale: int, start: Sequence[Row] | None = None
) -> tuple[LatticeBasis, ReducedBasis, tuple[Row, ...]]:
    """Block-reduce the level-k lattice at this scale, and check that the
    reduced rows generate exactly that lattice.

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
    the basis, the reduction and the coordinates of its rows.
    """
    basis = build_basis(squarefree.squarefree_upto(k), scale)
    # bkz's first argument is positional: perfbench's tracer reads args[0].
    reduced = bkz(basis if start is None else [basis.vector(c) for c in start])
    try:
        coords = tuple(basis.coordinates(row) for row in reduced.rows)
    except ValueError:
        raise ReductionError("a reduced row is not a vector of the input lattice") from None
    if len(reduced.rows) != basis.dim or reduced.profile.gram_det != scale * scale:
        raise ReductionError("reduced rows span a proper sublattice of the input lattice")
    return basis, reduced, coords


def _certify(
    k: int, scale: int, start: Sequence[Row] | None = None
) -> tuple[LowerBoundCertificate, tuple[Row, ...]]:
    """certify_lower_bound, reducing from start as _reduce_checked does;
    also returns the coordinates of the reduced rows."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    basis, reduced, coords = _reduce_checked(k, scale, start)
    threshold = certification_threshold(k)
    min_norm = reduced_profile(reduced).min_norm_sq
    cert = LowerBoundCertificate(
        k=k,
        sigma_k=basis.radicands[-1],
        scale=scale,
        min_gs_norm_sq=min_norm,
        threshold=threshold,
        difference=min_norm - threshold.rational_part,
        threshold_passed=threshold.exceeded_by(min_norm),
    )
    return cert, coords


def certify_lower_bound(k: int, scale: int) -> LowerBoundCertificate:
    """Attempt to certify G(k) >= 1/scale at the given scale.

    Builds the lattice over the first k square-free integers, block-reduces,
    takes the exact minimum Gram-Schmidt norm of the reduced basis, and
    compares it against the certification threshold by radical isolation.
    A certificate with threshold_passed False is a failed attempt, not an
    error; the exact norm it carries shows how far the comparison missed.
    """
    return _certify(k, scale)[0]


def find_lower_bound(
    k: int,
    *,
    step: int = DEFAULT_STEP,
    start_scale: int | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    progress: Callable[[LowerBoundCertificate], None] | None = None,
) -> LowerBoundCertificate:
    """Grow the scale geometrically until a lower bound certifies.

    Scales start at start_scale (default 10**(2k), which skips the small
    scales that cannot certify) and multiply by step until the exact
    threshold comparison passes.  Returns the first passing certificate;
    raises NoCertificateError carrying the last failed certificate if
    max_iters scales are exhausted.

    Each probe after the first is warm-started: the previous probe's
    reduced rows, lifted to the new scale through their integer
    coordinates, are the rows the reduction starts from (van Hoeij's
    gradual feeding).  Every probe, warm or not, checks that its rows are a
    basis of its lattice and verifies the reduction on a fresh integer GSO
    of the output rows, so soundness does not depend on the start.  The
    certificate comes from another reduced basis than certify_lower_bound
    at the same scale, so its min_gs_norm_sq may differ; both are sound.
    """
    if step < 2:
        raise ValueError(f"step must be >= 2, got {step}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    scale = 10 ** (2 * k) if start_scale is None else start_scale
    if scale < 1:
        raise ValueError(f"start_scale must be >= 1, got {scale}")
    last: Optional[LowerBoundCertificate] = None
    coords = None
    for _ in range(max_iters):
        cert, coords = _certify(k, scale, coords)
        if progress is not None:
            progress(cert)
        if cert.threshold_passed:
            return cert
        last = cert
        scale *= step
    raise NoCertificateError(
        f"no certificate for k={k} within {max_iters} scales (last scale {scale // step})",
        last_certificate=last,
    )


def _row_inequality_rhs(first: int, coeffs: Sequence[int], scale: int) -> Fraction:
    """(|s| + sum|a_i|/2) / scale for the lattice row (s, a_1, ..., a_k)."""
    return Fraction(2 * abs(first) + sum(abs(a) for a in coeffs), 2 * scale)


@dataclass(frozen=True)
class UpperBoundWitness:
    """A lattice row certifying a small positive value of the radical sum.

    (first_coord, coefficients) is a vector of the lattice at this scale;
    offset is the integer b recovered from the first coordinate, and bound
    encloses |sum(a_i * sqrt(sf_i)) - b|.  n_effective = max(a_i^2 * sf_i)
    is the height at which the witness bounds the minimum gap from above.
    """

    coefficients: tuple[int, ...]
    offset: int
    radicands: tuple[int, ...]
    scale: int
    first_coord: int
    value: RadicalSum
    bound: Enclosure
    n_effective: int

    def row_inequality_rhs(self) -> Fraction:
        return _row_inequality_rhs(self.first_coord, self.coefficients, self.scale)


def row_witness(basis: LatticeBasis, row: Sequence[int]) -> Optional[UpperBoundWitness]:
    """Convert one lattice row into an upper-bound witness.

    Returns None when every radical coefficient vanishes (rows proportional
    to the all-zero-tail generator carry no information).  The enclosure of
    the witness value is refined until it decides the row inequality
    |value| <= (|s| + sum|a_i|/2)/scale, then recomputed at twice that
    precision, so the stored bound is certified with margin.
    """
    first = row[0]
    coeffs = tuple(row[1:])
    if not any(coeffs):
        return None
    offset = -basis.coordinates(row)[0]
    value = RadicalSum.from_terms(zip(coeffs, basis.radicands), offset=offset)
    rhs = _row_inequality_rhs(first, coeffs, basis.scale)

    def decide(bits: int) -> int | None:
        enc = enclose_radical_sum(value, bits).abs()
        if enc.hi <= rhs:
            return bits
        if enc.lo > rhs:
            raise ArithmeticError(
                f"row inequality violated: |{value}| > {rhs}"
            )  # mathematically impossible for a lattice row
        return None

    bits = refine(decide, lambda: f"row inequality for {value}")
    certified = enclose_radical_sum(value, 2 * bits).abs()
    if certified.hi > rhs:
        raise ArithmeticError("refined enclosure lost the row inequality")
    return UpperBoundWitness(
        coefficients=coeffs,
        offset=offset,
        radicands=basis.radicands,
        scale=basis.scale,
        first_coord=first,
        value=value,
        bound=certified,
        n_effective=max(a * a * s for a, s in zip(coeffs, basis.radicands) if a),
    )


def upper_bound_from_reduction(k: int, scale: int) -> UpperBoundWitness:
    """Best constructive upper-bound witness from one block reduction.

    Scans every reduced row with a nonzero coefficient vector and keeps the
    one whose certified |value| is smallest (exact comparison, escalating
    precision on enclosure overlap); any row satisfies the row inequality,
    but the shortest row is not always the best witness.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if scale < 2:
        raise ValueError(f"scale must be >= 2, got {scale}")
    basis, reduced, _ = _reduce_checked(k, scale)
    best: Optional[UpperBoundWitness] = None
    for row in reduced.rows:
        witness = row_witness(basis, row)
        if witness is None:
            continue
        if best is None or compare_abs(witness.value, best.value) < 0:
            best = witness
    if best is None:
        raise ArithmeticError("no row with nonzero coefficients (impossible for scale >= 2)")
    return best


def root_separation_log10(n: int, k: int, variant: str = "R") -> float:
    """Classic root-separation lower bound, as a base-10 logarithm.

    The gap is at least max(base**eneg1, base**eneg2) with base = k*sqrt(n)
    for the all-positive-signs variant ("r1") and base = 2k*sqrt(n) for the
    signed variant ("R"), and exponents -2**(k-1) and -2**(pi(n)-1); the max
    picks the smaller of the two exponents.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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


@dataclass(frozen=True)
class QianWangInstance:
    """The alternating binomial sum sum((-1)^i * C(k,i) * sqrt(t+i)) and its bound.

    The sum telescopes to something below (1*3*5*...*(2k-3)) / (2^k * t^(k-1/2)).
    rhs_sq is the exact square of that right-hand side, so the inequality
    |sum| <= rhs is decidable by squaring dyadic enclosure endpoints.
    """

    k: int
    t: int
    value: RadicalSum
    rhs_sq: Fraction
    rhs_log10: float

    def satisfied(self) -> bool:
        """Exact decision of |value| <= rhs."""
        if self.value.is_zero():
            return True

        def decide(bits: int) -> bool | None:
            enc = enclose_radical_sum(self.value, bits).abs()
            if enc.hi * enc.hi <= self.rhs_sq:
                return True
            if enc.lo * enc.lo > self.rhs_sq:
                return False
            return None

        return refine(decide, lambda: f"|{self.value}| <= rhs")


def qian_wang_instance(k: int, t: int) -> QianWangInstance:
    """Build the alternating binomial instance at offset t.

    Radicands C(k,i)^2 * (t+i) are decomposed to square-free form inside
    RadicalSum, so perfect-square parts fold into the rational offset and
    shared square-free parts merge.
    """
    if not 2 <= k <= QIAN_WANG_MAX_K:
        raise ValueError(f"k must lie in [2, {QIAN_WANG_MAX_K}] (QIAN_WANG_MAX_K), got {k}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if t + k >= squarefree.DECOMPOSE_LIMIT:  # the radicands t .. t + k are decomposed
        raise ValueError(f"t + k must be below 2**64 (DECOMPOSE_LIMIT), got {(t + k).bit_length()} bits")
    terms = []
    for i in range(k + 1):
        c = math.comb(k, i)
        terms.append((c if i % 2 == 0 else -c, t + i))
    value = RadicalSum.from_terms(terms)
    odd_product = 1
    for odd in range(1, 2 * k - 2, 2):
        odd_product *= odd
    rhs_sq = Fraction(odd_product * odd_product, 4**k * t ** (2 * k - 1))
    rhs_log10 = math.log10(odd_product) - k * math.log10(2) - (k - 0.5) * math.log10(t)
    return QianWangInstance(k=k, t=t, value=value, rhs_sq=rhs_sq, rhs_log10=rhs_log10)


@dataclass(frozen=True)
class RatioCell:
    """One cell of the reduction-quality scan: lambda* against scale^(1/(k+1))."""

    k: int
    log10_scale: int
    shortest_row_norm_sq: int | None = None
    min_gs_norm_sq: Fraction | None = None
    ratio: float | None = None
    conjecture_violation: bool | None = None
    error: str | None = None


def _ln_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _scan_cell(k: int, log10_scale: int) -> RatioCell:
    try:
        scale = 10**log10_scale
        _, reduced, _ = _reduce_checked(k, scale)
        min_norm = reduced_profile(reduced).min_norm_sq
        l_sq = min(sum(c * c for c in row) for row in reduced.rows)
        ratio = math.exp(0.5 * _ln_fraction(min_norm) - log10_scale * math.log(10) / (k + 1))
        # Exact certificate-side conjecture check: lambda* <= scale^(1/(k+1))/k
        # iff (lambda*^2 * k^2)^(k+1) <= scale^2.
        lhs = (min_norm * k * k) ** (k + 1)
        violation = lhs <= scale * scale
        return RatioCell(
            k=k,
            log10_scale=log10_scale,
            shortest_row_norm_sq=l_sq,
            min_gs_norm_sq=min_norm,
            ratio=ratio,
            conjecture_violation=violation,
        )
    except Exception as exc:  # per-cell failures must not kill the scan
        return RatioCell(k=k, log10_scale=log10_scale, error=f"{type(exc).__name__}: {exc}")


def ratio_scan(k_list: Sequence[int], log10_scale_list: Sequence[int]) -> list[RatioCell]:
    """Reduce a grid of (k, scale) cells and report lambda*/scale^(1/(k+1)).

    Cells are independent and deterministic, and are returned in grid
    order.  A cell whose ratio falls at or below 1/k is flagged: that would
    contradict the expected shortest-vector growth on the certificate side
    (the reduced lambda* lower bound, not the true shortest length).
    """
    if not k_list or not log10_scale_list:
        raise ValueError("k_list and log10_scale_list must be non-empty")
    # Checked before the first cell, which would record them as its error.
    if not all(1 <= k < BASIS_MAX_DIM for k in k_list) or min(log10_scale_list) < 0:
        raise ValueError(f"need 1 <= k < BASIS_MAX_DIM = {BASIS_MAX_DIM} and log10 scales >= 0")
    return [_scan_cell(k, e) for k in k_list for e in log10_scale_list]
