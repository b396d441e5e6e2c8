"""Exhaustive ground truth for tiny instances of the minimum-gap problem.

Three variants, matching the three shapes of the question:

  r1: fixed signs, no integer part.  floor(k/2) positive square roots minus
      the remaining k - floor(k/2), radicands from 1 to n, repeats allowed.
  r2: k distinct radicands, all positive square roots, minus a free
      integer t.  (With repeats allowed the variant collapses toward R and
      the standard worked values no longer hold: already at n = k = 3 the
      repeated choice sqrt(2)+sqrt(3)+sqrt(3)-5 = -0.1217 would undercut
      sqrt(1)+sqrt(2)+sqrt(3)-4 = 0.1463.)
  R:  signs in {1, 0, -1} per term, repeats allowed, and a free integer t.
      At n = k = 3 the minimum is 2*sqrt(3) - sqrt(2) - 2 = 0.049888, from
      sqrt(3) + sqrt(3) - sqrt(2) - 2; the often-quoted 2*sqrt(2) - sqrt(3)
      - 1 = 0.096376 is a larger valid instance, not the minimum.

Enumeration runs over multisets rather than tuples: the value of an
expression depends only on the multiset of (sign, radicand) pairs, which
cuts the search space by the factorial of the number of repeats.  Exact
zeros (e.g. sqrt(2) + sqrt(2) - sqrt(8)) are recognized from the canonical
square-free form and discarded, never by numeric smallness; the running
minimum is maintained by interval comparison with escalating precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .exactnum import (
    Enclosure,
    NEGATIVE,
    RadicalSum,
    certify_sign,
    compare_abs,
    enclose_radical_sum,
    round_half_up,
)

VARIANTS = ("r1", "r2", "R")
DEFAULT_CAP = 10**8


class EnumerationCapError(ValueError):
    """The symmetry-reduced search space still exceeds the instance cap."""


@dataclass(frozen=True)
class BruteForceResult:
    value: Enclosure  # encloses the minimum; strictly positive
    witness: RadicalSum  # achieves the minimum, certified positive
    instance_count: int


def _offset_candidates(value: RadicalSum) -> range:
    """Integers t that can minimize the positive distance |value - t|.

    The minimizing t lies within 1 of the value, so five integers around a
    coarse midpoint estimate (width <= 1/8 at 64 bits) always include it.
    """
    mid = enclose_radical_sum(value, 64).midpoint()
    t = round_half_up(mid.numerator, mid.denominator)
    return range(t - 2, t + 3)


class _MinTracker:
    def __init__(self) -> None:
        self.best: RadicalSum | None = None
        self.count = 0

    def offer(self, candidate: RadicalSum) -> None:
        self.count += 1
        if candidate.is_zero():
            return
        if self.best is None or compare_abs(candidate, self.best) < 0:
            self.best = candidate

    def result(self) -> BruteForceResult:
        if self.best is None:
            raise ArithmeticError("no nonzero candidate was enumerated")
        witness = self.best
        sign, enclosure = certify_sign(witness)
        if sign == NEGATIVE:
            witness = witness.negate()
            enclosure = -enclosure
        return BruteForceResult(value=enclosure, witness=witness, instance_count=self.count)


def _multiset_count(alphabet: int, size: int) -> int:
    return math.comb(alphabet + size - 1, size)


def brute_force(n: int, k: int, variant: str, cap: int = DEFAULT_CAP) -> BruteForceResult:
    """Exact minimum positive value over all instances of the given variant.

    Raises EnumerationCapError when the multiset-reduced enumeration would
    exceed cap instances.  The returned enclosure is certified positive and
    the witness re-certifies to the same value.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")

    tracker = _MinTracker()
    radicands = range(1, n + 1)

    if variant == "r1":
        positives = k // 2
        negatives = k - positives
        total = _multiset_count(n, positives) * _multiset_count(n, negatives)
        if total > cap:
            raise EnumerationCapError(f"r1 enumeration needs {total} > {cap} instances")
        for pos in combinations_with_replacement(radicands, positives):
            pos_terms = [(1, s) for s in pos]
            for neg in combinations_with_replacement(radicands, negatives):
                value = RadicalSum.from_terms(pos_terms + [(-1, s) for s in neg])
                tracker.offer(value)
        return tracker.result()

    if variant == "r2":
        if k > n:
            raise ValueError(f"r2 needs k distinct radicands <= n, got k={k} > n={n}")
        total = math.comb(n, k)
        if total > cap:
            raise EnumerationCapError(f"r2 enumeration needs {total} > {cap} instances")
        for comb in combinations(radicands, k):
            value = RadicalSum.from_terms((1, s) for s in comb)
            for t in _offset_candidates(value):
                tracker.offer(value.with_offset(t))
        return tracker.result()

    # variant R: multisets of signed terms of every size up to k; terms with
    # sign 0 simply shrink the multiset.
    total = sum(_multiset_count(2 * n, m) for m in range(k + 1))
    if total > cap:
        raise EnumerationCapError(f"R enumeration needs {total} > {cap} instances")
    alphabet = [(sign, s) for sign in (1, -1) for s in radicands]
    for size in range(k + 1):
        for combo in combinations_with_replacement(alphabet, size):
            value = RadicalSum.from_terms(combo)
            for t in _offset_candidates(value):
                tracker.offer(value.with_offset(t))
    return tracker.result()
