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
minimum starts at 1, which every variant reaches, and is maintained by
exact comparison.  The work per multiset is on integers: each radicand
1..n is decomposed once into a*a*s with s square-free, and a multiset is a
tuple of (+-a, s) terms.  Their bracket at SCREEN_BITS
(exactnum.terms_bracket, unmerged) drops every multiset whose sum no
integer brings within the best's bracket, which is nearly all of them.  A
survivor is merged (exactnum.merge_terms) into its canonical terms and
rational part, and its radical part is bracketed once more.  Its offsets
u, for candidates (radical part) - u, are the integers that bring that
bracket within the best's (for r1, only u = -rational); a candidate's
bracket is the pair shifted by u, and a RadicalSum is built only for a
candidate that passes.  A candidate whose bracket clears the best's is
decided there, and only overlapping brackets climb the precision ladder in
compare_abs.  Each variant counts the instances it will offer (sums, times
the OFFSETS_PER_SUM candidates where t is free) as one binomial (r1: one
per sign group), before any radicand is decomposed.  A count above
DEFAULT_CAP = 10^8 raises ValueError, whose message says "more than" for a
count of 2^64 or more and where a binomial's smaller index alone passes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .exactnum import (
    Enclosure,
    NEGATIVE,
    RadicalSum,
    abs_bracket,
    certify_sign,
    compare_abs,
    enclose_radical_sum,  # perfbench/tracer.py binds oracle.enclose_radical_sum by getattr
    merge_terms,
    terms_bracket,
)
from .squarefree import squarefree_decompose

VARIANTS = ("r1", "r2", "R")
DEFAULT_CAP = 10**8
SCREEN_BITS = 64
# Where t is free, instance_count counts each sum as five instances: the
# offsets that can minimize the positive |sum - t| lie within 1 of the sum,
# among the five integers nearest it.
OFFSETS_PER_SUM = 5


@dataclass(frozen=True)
class BruteForceResult:
    value: Enclosure  # encloses the minimum; strictly positive
    witness: RadicalSum  # achieves the minimum, certified positive
    instance_count: int


def _within(lo: int, hi: int, radius: int) -> tuple[int, int]:
    """First and last integer v with lo - radius <= v * 2^SCREEN_BITS <= hi + radius."""
    return -((radius - lo) >> SCREEN_BITS), (hi + radius) >> SCREEN_BITS


def brute_force(n: int, k: int, variant: str) -> BruteForceResult:
    """Exact minimum positive value over all instances of the given variant.

    Raises ValueError when the multiset-reduced enumeration would offer
    more than DEFAULT_CAP instances, the unit of instance_count, and for r1
    at n = 1 with even k, whose every sum is 0.  The
    returned enclosure is certified positive and the witness re-certifies to
    the same value.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")

    half = k // 2
    if variant == "r1":
        if n == 1 and k == 2 * half:
            raise ValueError(f"r1 at n=1 with even k={k} has only zero sums: "
                             f"+sqrt(1) taken {half} times cancels -sqrt(1) taken {half} times")
        factors = ((n + half - 1, half), (n + k - half - 1, k - half))
    elif variant == "r2":
        if k > n:
            raise ValueError(f"r2 needs k distinct radicands <= n, got k={k} > n={n}")
        factors = ((n, k), (OFFSETS_PER_SUM, 1))  # times one of the offsets t, as in R
    else:  # sizes m <= k over 2n signed terms: sum_m C(2n + m - 1, m) = C(2n + k, k)
        factors = ((2 * n + k, k), (OFFSETS_PER_SUM, 1))
    # C(a, b) >= 2^min(b, a - b): a binomial that alone passes the cap is never formed
    past = any(min(b, a - b) >= DEFAULT_CAP.bit_length() for a, b in factors)
    total = None if past else math.prod(math.comb(a, b) for a, b in factors)
    if past or total > DEFAULT_CAP:
        needs = "more than" if past or total >> 64 else f"{total} >"
        raise ValueError(f"{variant} enumeration needs {needs} DEFAULT_CAP = {DEFAULT_CAP} instances")

    # each radicand r = a*a*s (s square-free) as its term (a, s), decomposed once
    positive = [squarefree_decompose(r) for r in range(1, n + 1)]
    negative = [(-a, s) for a, s in positive]
    if variant == "r1":
        multisets = (pos + neg
                     for pos in combinations_with_replacement(positive, half)
                     for neg in combinations_with_replacement(negative, k - half))
    elif variant == "r2":
        multisets = combinations(positive, k)
    else:
        # terms with sign 0 simply shrink the multiset
        multisets = (combo for size in range(k + 1)
                     for combo in combinations_with_replacement(positive + negative, size))

    # best is the running minimum; [best_lo, best_hi] / 2^SCREEN_BITS brackets
    # |best|.  It starts at 1, which every variant reaches or undercuts: where
    # t is free, an integer lies within 1 of any sum; r1 with odd k has the
    # all-sqrt(1) sum, -1; r1 with even k and n >= 2 has sqrt(2) - 1.  A
    # minimum of exactly 1 has canonical form +-1, which normalises to this seed.
    best = RadicalSum((), -1)
    best_lo = best_hi = 1 << SCREEN_BITS
    for multiset in multisets:
        # the unmerged terms bracket the whole sum, a little more loosely
        # than its canonical form; a sum that no integer v brings within
        # best_hi has no candidate that can beat the best
        first, last = _within(*terms_bracket(multiset, SCREEN_BITS), best_hi)
        if first > last:
            continue
        terms, rational = merge_terms(multiset)
        # [lo, hi] / 2^SCREEN_BITS brackets the radical part, so the candidate
        # with offset u is bracketed by [lo, hi] - u * 2^SCREEN_BITS; form only
        # the offsets that can still beat the best, and the loop re-checks
        # each, as best_hi shrinks
        lo, hi = terms_bracket(terms, SCREEN_BITS)
        first, last = _within(lo, hi, best_hi)
        if variant == "r1":  # no free integer t: the one offset -rational
            first, last = max(first, -rational), min(last, -rational)
        for u in range(first, last + 1):
            shift = u << SCREEN_BITS
            c_lo, c_hi = abs_bracket(lo - shift, hi - shift)
            if c_lo >= best_hi:
                continue  # no smaller than the best
            if not terms and u == 0:
                continue  # exactly zero
            candidate = RadicalSum(terms, u)
            if c_hi < best_lo or compare_abs(candidate, best) < 0:
                best, best_lo, best_hi = candidate, c_lo, c_hi
    sign, enclosure = certify_sign(best)
    if sign == NEGATIVE:
        best, enclosure = best.negate(), -enclosure
    return BruteForceResult(value=enclosure, witness=best, instance_count=total)
