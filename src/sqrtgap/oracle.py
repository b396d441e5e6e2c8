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

The search runs over multisets rather than tuples: the value of an
expression depends only on the multiset of (sign, radicand) pairs, which
cuts the search space by the factorial of the number of repeats.  Exact
zeros (e.g. sqrt(2) + sqrt(2) - sqrt(8)) are recognized from the canonical
square-free form and discarded, never by numeric smallness; the running
minimum starts at 1, which every variant reaches, and is maintained by
exact comparison.  Each radicand 1..n is decomposed once into a*a*s with s
square-free, and a multiset is a tuple of (+-a, s) terms.

Meet in the middle: every multiset splits uniquely into a left and a right
half-multiset.  r1 splits into its positive and its negative group; r2
cuts the radicands into 1..floor(n/2) and the rest, with sizes that sum to
k; R cuts its letters into the positive and the negative terms, with
sizes that sum to at most k.  Each half list is built once, per size, with
every entry's unmerged bracket at SCREEN_BITS: the sum of its letters'
exactnum.terms_bracket pairs, so a pair's bracket is exactly the sum of its
halves'.  Each right list is sorted by the low end.  For a left entry,
bisection finds the window of right entries whose sum can lie within the
best's bracket (plus both bracket widths) of an integer: on the line for
r1, whose offset is fixed, and on the circle mod 1 for r2 and R, whose t is
free.  A pair outside the window fails the screen below.  Each pair in the
window is screened on its bracket, which drops every sum that no integer
brings within the best's bracket.  A survivor is merged
(exactnum.merge_terms) into its canonical terms and rational part, and its
radical part is bracketed once more.  Its offsets u, for candidates
(radical part) - u, are the integers that bring that bracket within the
best's (for r1, only u = -rational).  A candidate's bracket is the pair
shifted by u, and a RadicalSum is built only for a candidate that passes.
A candidate whose bracket clears the best's is decided there, and only
overlapping brackets climb the precision ladder in compare_abs.

The output does not depend on the order pairs are visited in: a value's
canonical form is unique, so |value| is minimised by one form and its
negation alone, and sign normalisation picks one of them.  The witness,
its enclosure and instance_count are therefore the same as a walk over
every multiset would give.

One limit is checked, on counts alone, before any radicand is decomposed:
what the search holds, counted in slots, one per decomposed radicand, one
per half-list entry and one per term an entry holds, one binomial per size
of each half list.  A count above HOLD_CAP = 2^20 slots raises ValueError;
a slot takes at most about 160 bytes (entries of one term) and about 32 at
k >= 6.  The count stops at the first partial sum past HOLD_CAP and never
forms a binomial whose smaller index alone passes it, so a huge input is
refused in milliseconds.  instance_count, the instances offered (sums,
times the OFFSETS_PER_SUM candidates where t is free; one binomial per
variant, r1: one per sign group), is formed only for an admitted input.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import combinations, combinations_with_replacement
from operator import itemgetter
from typing import Iterable, NamedTuple

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
from .squarefree import quoted_int, squarefree_decompose

VARIANTS = ("r1", "r2", "R")
SCREEN_BITS = 64
HOLD_CAP = 1 << 20
# Where t is free, instance_count counts each sum as five instances: the
# offsets that can minimize the positive |sum - t| lie within 1 of the sum,
# among the five integers nearest it.
OFFSETS_PER_SUM = 5
_LO = itemgetter(0)
_TURN = 1 << SCREEN_BITS  # an integer step of a sum, on the screen's scale


class BruteForceResult(NamedTuple):
    value: Enclosure  # encloses the minimum; strictly positive
    witness: RadicalSum  # achieves the minimum, certified positive
    instance_count: int


def _within(lo: int, hi: int, radius: int) -> tuple[int, int]:
    """First and last integer v with lo - radius <= v * 2^SCREEN_BITS <= hi + radius."""
    return -((radius - lo) >> SCREEN_BITS), (hi + radius) >> SCREEN_BITS


def _slots(n: int, halves: Iterable[tuple[int, Iterable[int]]], repeat: bool) -> int:
    """Slots the search holds: one per radicand 1..n and, for each half list
    (letters, sizes), one per half-multiset of that many letters and a size in
    sizes, with repeats or without, and one per term it holds.  The count stops
    at its first partial sum past HOLD_CAP, a lower bound, and forms no binomial
    C(a, j) >= 2^min(j, a - j) whose smaller index alone passes HOLD_CAP."""
    held = n
    for letters, sizes in halves:
        for j in sizes:
            a = letters + j - 1 if repeat else letters
            if held > HOLD_CAP or min(j, a - j) >= HOLD_CAP.bit_length():
                return HOLD_CAP + 1
            held += (1 + j) * math.comb(a, j)
    return held


def _half_lists(letters, sizes, choose, circle):
    """For each size, the half-multisets of that size as (lo, hi, terms), sorted
    by lo, and the largest hi - lo.

    [lo, hi] / 2^SCREEN_BITS is the terms' unmerged bracket, the sum of their
    letters' brackets, so a pair's bracket is the sum of its halves'.  On the
    circle it is shifted by an integer to 0 <= lo < 2^SCREEN_BITS, which
    changes no screen where t is free.
    """
    low, high = ({t: terms_bracket((t,), SCREEN_BITS)[end] for t in letters} for end in (0, 1))
    lists = {}
    for size in sizes:
        entries = []
        for terms in choose(letters, size):
            lo, hi = sum(map(low.__getitem__, terms)), sum(map(high.__getitem__, terms))
            if circle:
                shift = lo >> SCREEN_BITS << SCREEN_BITS
                lo, hi = lo - shift, hi - shift
            entries.append((lo, hi, terms))
        entries.sort(key=_LO)
        lists[size] = entries, max(hi - lo for lo, hi, _ in entries)
    return lists


def _window(entries, first: int, last: int, circle: bool):
    """The sorted entries with first <= lo <= last, or on the circle with
    first <= lo + v * 2^SCREEN_BITS <= last for some integer v."""
    if circle:
        if last - first >= _TURN:
            return entries
        # shifted to 0 <= first < 2^SCREEN_BITS, where lo lies: past the
        # turn, the window goes on from lo = 0
        shift = first >> SCREEN_BITS << SCREEN_BITS
        first, last = first - shift, last - shift
        if last >= _TURN:
            return entries[bisect_left(entries, first, key=_LO):] + entries[:bisect_right(entries, last - _TURN, key=_LO)]
    return entries[bisect_left(entries, first, key=_LO):bisect_right(entries, last, key=_LO)]


def brute_force(n: int, k: int, variant: str) -> BruteForceResult:
    """Exact minimum positive value over all instances of the given variant.

    Raises ValueError when the search would hold more than HOLD_CAP slots,
    and for r1 at n = 1 with even k, whose every sum is 0.  instance_count
    counts the instances of the multiset-reduced enumeration.  The returned
    enclosure is certified positive and the witness re-certifies to the same
    value.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {quoted_int(n)}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {quoted_int(k)}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")

    half = k // 2
    if variant == "r1":
        if n == 1 and k == 2 * half:
            raise ValueError(f"r1 at n=1 with even k={quoted_int(k)} has only zero sums: "
                             f"+sqrt(1) taken {quoted_int(half)} times cancels -sqrt(1) taken {quoted_int(half)} times")
        factors = ((n + half - 1, half), (n + k - half - 1, k - half))
        # the positive group, of h = floor(k/2) terms, against the negative group
        counts, left_sizes = (n, n), (half,)
    elif variant == "r2":
        if k > n:
            raise ValueError(f"r2 needs k distinct radicands <= n, got k={quoted_int(k)} > n={quoted_int(n)}")
        factors = ((n, k), (OFFSETS_PER_SUM, 1))  # times one of the offsets t, as in R
        # radicands 1..floor(n/2) against the rest, k distinct in all
        counts = (n // 2, n - n // 2)
        left_sizes = range(max(0, k - counts[1]), min(k, counts[0]) + 1)
    else:  # sizes m <= k over 2n signed terms: sum_m C(2n + m - 1, m) = C(2n + k, k)
        factors = ((2 * n + k, k), (OFFSETS_PER_SUM, 1))
        # the positive terms against the negative terms, k in all at most
        counts, left_sizes = (n, n), range(k + 1)
    # the right lists' sizes k - j, as a range: none is listed before the count
    right_sizes = left_sizes if variant == "R" else range(k - left_sizes[-1], k - left_sizes[0] + 1)
    repeat = variant != "r2"
    if _slots(n, zip(counts, (left_sizes, right_sizes)), repeat) > HOLD_CAP:
        raise ValueError(f"{variant} search needs more than HOLD_CAP = {HOLD_CAP} slots")

    # each radicand r = a*a*s (s square-free) as its term (a, s), decomposed once
    positive = [squarefree_decompose(r) for r in range(1, n + 1)]
    negative = [(-a, s) for a, s in positive]
    letters = (positive[:counts[0]], positive[counts[0]:]) if variant == "r2" else (positive, negative)
    choose = combinations_with_replacement if repeat else combinations
    circle = variant != "r1"  # where t is free, only the sum's place mod 1 counts
    lefts = _half_lists(letters[0], left_sizes, choose, circle)
    rights = _half_lists(letters[1], right_sizes, choose, circle)
    # each left list meets the right list of every size it pairs with: sizes
    # sum to k, or for R to at most k
    blocks = [(lefts[j][0], *rights[m])
              for j in left_sizes for m in (range(k - j + 1) if variant == "R" else (k - j,))]

    # best is the running minimum; [best_lo, best_hi] / 2^SCREEN_BITS brackets
    # |best|.  It starts at 1, which every variant reaches or undercuts: where
    # t is free, an integer lies within 1 of any sum; r1 with odd k has the
    # all-sqrt(1) sum, -1; r1 with even k and n >= 2 has sqrt(2) - 1.  A
    # minimum of exactly 1 has canonical form +-1, which normalises to this seed.
    best = RadicalSum((), -1)
    best_lo = best_hi = _TURN
    for left, right, width in blocks:
        for l_lo, l_hi, l_terms in left:
            # with r_hi <= r_lo + width, a right entry outside the window puts
            # the pair's bracket more than best_hi from every integer (for r1,
            # from 0), so no candidate of the pair can beat the best; best_hi
            # only shrinks, so the window formed here stays wide enough
            for r_lo, r_hi, r_terms in _window(right, -l_hi - width - best_hi, best_hi - l_lo, circle):
                # the pair's bracket is the unmerged terms' bracket; a sum that
                # no integer v brings within best_hi has no candidate that can
                # beat the best
                first, last = _within(l_lo + r_lo, l_hi + r_hi, best_hi)
                if first > last:
                    continue
                terms, rational = merge_terms(l_terms + r_terms)
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
    return BruteForceResult(enclosure, best, math.prod(math.comb(a, b) for a, b in factors))
