import hashlib
import itertools
import math
import time
import tracemalloc

import pytest

from sqrtgap import oracle
from sqrtgap.exactnum import certify_sign
from sqrtgap.oracle import brute_force
from sqrtgap.squarefree import nth_squarefree


def _naive_minimum(n, k, variant, t_range=8):
    """Independent oracle: enumerate raw tuples in floats, no symmetry tricks."""
    best = None
    if variant == "r1":
        pos = k // 2
        for s in itertools.product(range(1, n + 1), repeat=k):
            v = sum(math.sqrt(x) for x in s[:pos]) - sum(math.sqrt(x) for x in s[pos:])
            if abs(v) > 1e-9 and (best is None or abs(v) < best):
                best = abs(v)
        return best
    if variant == "r2":
        for s in itertools.combinations(range(1, n + 1), k):
            v = sum(math.sqrt(x) for x in s)
            for t in range(0, 4 * k + 4):
                if abs(v - t) > 1e-9 and (best is None or abs(v - t) < best):
                    best = abs(v - t)
        return best
    for e in itertools.product((1, 0, -1), repeat=k):
        for s in itertools.product(range(1, n + 1), repeat=k):
            v = sum(ei * math.sqrt(si) for ei, si in zip(e, s))
            for t in range(-t_range, t_range + 1):
                if abs(v - t) > 1e-9 and (best is None or abs(v - t) < best):
                    best = abs(v - t)
    return best


def _naive_offer_count(n, k, variant):
    """Independent count of the instances the oracle offers: the distinct
    multisets among raw tuples, times the OFFSETS_PER_SUM candidates where
    the integer t is free."""
    radicands = range(1, n + 1)
    if variant == "r1":
        pos = k // 2
        sums = {(tuple(sorted(s[:pos])), tuple(sorted(s[pos:])))
                for s in itertools.product(radicands, repeat=k)}
        return len(sums)
    if variant == "r2":
        return len(list(itertools.combinations(radicands, k))) * oracle.OFFSETS_PER_SUM
    sums = {tuple(sorted((ei, si) for ei, si in zip(e, s) if ei))
            for e in itertools.product((1, 0, -1), repeat=k)
            for s in itertools.product(radicands, repeat=k)}
    return len(sums) * oracle.OFFSETS_PER_SUM


def test_worked_examples_r1_r2():
    assert abs(brute_force(3, 3, "r1").value.approx() - (2 - math.sqrt(3))) < 1e-12
    assert abs(
        brute_force(3, 3, "r2").value.approx() - (math.sqrt(2) + math.sqrt(3) - 3)
    ) < 1e-12


def test_true_minimum_R33():
    # The minimum of |e1*sqrt(s1)+e2*sqrt(s2)+e3*sqrt(s3) - t| over s_i <= 3
    # is 2*sqrt(3) - sqrt(2) - 2 = 0.049888..., achieved by (1,1,-1) on
    # (3,3,2) with t=2.  (The often-quoted 2*sqrt(2)-sqrt(3)-1 = 0.0963 is a
    # valid instance but not minimal.)
    res = brute_force(3, 3, "R")
    expected = 2 * math.sqrt(3) - math.sqrt(2) - 2
    assert abs(res.value.approx() - expected) < 1e-12
    assert dict(((s, c) for c, s in res.witness.terms)) == {2: -1, 3: 2}


def test_matches_naive_enumeration():
    for n, k in [(2, 2), (3, 2), (3, 3), (2, 3)]:
        for variant in ("r1", "r2", "R"):
            if variant == "r2" and k > n:
                continue
            got = brute_force(n, k, variant).value.approx()
            want = _naive_minimum(n, k, variant)
            assert abs(got - want) < 1e-7, (n, k, variant, got, want)
    # r2 cases whose minimising sum takes sqrt(1) + sqrt(4) = 3 as its rational
    # part, which an offset window centred on the whole sum would shift away
    # from the radical part; the naive t range reaches 4k + 3, past the
    # largest sum, 17.3 at (12, 5)
    for n, k in [(4, 4), (5, 4), (5, 5), (6, 4), (8, 5), (12, 5)]:
        got = brute_force(n, k, "r2").value.approx()
        want = _naive_minimum(n, k, "r2")
        assert abs(got - want) < 1e-7, (n, k, "r2", got, want)


def test_variant_ordering_invariant():
    # the signed variant searches a superset of both others, so its minimum
    # can only be smaller; enclosures are ~1e-19 wide so lo/hi ordering works
    for n, k in [(3, 3), (4, 3), (5, 3), (6, 4)]:
        r = brute_force(n, k, "R").value
        r1 = brute_force(n, k, "r1").value
        assert r.lo <= r1.hi
        if k <= n:
            r2 = brute_force(n, k, "r2").value
            assert r.lo <= r2.hi


def test_R_non_increasing_in_n_and_k():
    values_n = [brute_force(n, 3, "R").value.approx() for n in (2, 3, 4, 5)]
    assert all(a >= b - 1e-15 for a, b in zip(values_n, values_n[1:]))
    values_k = [brute_force(3, k, "R").value.approx() for k in (1, 2, 3, 4)]
    assert all(a >= b - 1e-15 for a, b in zip(values_k, values_k[1:]))


def test_witness_reevaluation():
    for variant in ("r1", "r2", "R"):
        res = brute_force(3, 3, variant)
        sign, enc = certify_sign(res.witness)
        assert sign == 1  # witness is stored value-positive
        assert enc.lo <= res.value.hi and res.value.lo <= enc.hi
        assert res.value.lo > 0


def test_exact_zero_instances_are_skipped():
    # n=8 admits sqrt(2)+sqrt(2)-sqrt(8) = 0 exactly; the minimum must
    # still come out positive.
    res = brute_force(8, 3, "R")
    assert res.value.lo > 0


def test_instance_count_reported():
    res = brute_force(2, 2, "r1")
    # 2 positive-group choices... k=2: 1 positive, 1 negative: 2*2 = 4
    assert res.instance_count == 4
    for n, k in [(1, 1), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (2, 6), (3, 5)]:
        for variant in ("r1", "r2", "R"):
            if (variant == "r2" and k > n) or (variant == "r1" and n == 1 and k % 2 == 0):
                continue
            want = _naive_offer_count(n, k, variant)
            assert brute_force(n, k, variant).instance_count == want, (n, k, variant)


def test_enumeration_cap():
    with pytest.raises(ValueError, match=r"^R search needs more than HOLD_CAP = 1048576 slots$"):
        brute_force(50, 10, "R")


def test_cap_counts_offered_instances():
    # instance_count counts five offered candidates per sum where the
    # integer t is free
    assert brute_force(6, 4, "R").instance_count == 9100
    assert brute_force(6, 3, "r2").instance_count == 5 * math.comb(6, 3)


def test_cap_is_decided_without_forming_a_huge_binomial(monkeypatch):
    # C(a, b) >= 2^min(b, a - b) passes HOLD_CAP once the smaller index
    # reaches the cap's bit length, 21, so no such binomial is formed
    comb = math.comb

    def small_only(a, b):
        assert min(b, a - b) < 21, (a, b)
        return comb(a, b)

    monkeypatch.setattr(oracle.math, "comb", small_only)
    with pytest.raises(ValueError, match=r"^R search needs more than HOLD_CAP = 1048576 slots$"):
        brute_force(10**6, 10**6, "R")
    # a first size of 5 * 10^5 terms for r1, and of 10^5 for r2, under 10^6 radicands
    with pytest.raises(ValueError, match=r"^r1 search needs more than HOLD_CAP"):
        brute_force(10**6, 10**6, "r1")
    with pytest.raises(ValueError, match=r"^r2 search needs more than HOLD_CAP"):
        brute_force(10**6, 6 * 10**5, "r2")
    # 10^700 radicands alone pass the cap: no binomial is formed
    with pytest.raises(ValueError, match=r"^r2 search needs more than HOLD_CAP"):
        brute_force(10**700, 2, "r2")


def test_every_refusal_is_fast_and_small():
    # the count stops at its first partial sum past HOLD_CAP: k = 10^9 sizes
    # at n = 1, a binomial of smaller index 10^6, n itself past the cap, and
    # one list of 10^30 terms per entry
    for n, k, variant in [(1, 10**9, "R"), (10**6, 10**6, "R"), (10**700, 2, "r2"), (1, 10**30 + 1, "r1")]:
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match=f"^{variant} search needs more than HOLD_CAP = 1048576 slots$"):
                brute_force(n, k, variant)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.25 and peak < 1 << 20, (k, variant, elapsed, peak)


def test_held_slots_are_capped_before_any_radicand_is_decomposed():
    # r2 at k = 1 offers only 5n instances, but its half lists would hold
    # every radicand: refused on the count alone
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"^r2 search needs more than HOLD_CAP = 1048576 slots$"):
            brute_force(2 * 10**7, 1, "r2")
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.25 and peak < 1 << 20
    # few entries, but long ones: r1 at n = 2, k = 19997 offers 9999 * 10000
    # instances from lists of about 10^4 entries of about 10^4 terms each
    with pytest.raises(ValueError, match=r"^r1 search needs more than HOLD_CAP"):
        brute_force(2, 19997, "r1")


def _distinct_radicand_counts(witness, n):
    """The sizes of the sets of distinct radicands <= n whose positive square
    roots, less an integer, sum to the witness or to its negation."""
    sign = 1 if witness.terms[0][0] > 0 else -1
    counts = set(range(math.isqrt(n) + 1))  # any of the perfect squares, absorbed by the integer
    for c, s in witness.terms:
        assert sign * c > 0  # all positive roots: every coefficient has one sign
        sizes_by_sum = {0: {0}}  # the subsets of multipliers a, a*a*s <= n, by their sum
        for a in range(1, math.isqrt(n // s) + 1):
            for total, sizes in [(total, set(sizes)) for total, sizes in sizes_by_sum.items()]:
                sizes_by_sum.setdefault(total + a, set()).update(size + 1 for size in sizes)
        counts = {x + y for x in counts for y in sizes_by_sum.get(sign * c, ())}
    return counts


def test_r2_ground_truth_reaches_k_19():
    # r2 at (sigma(k), k) offers C(sigma(k), k) sums, 1.4 * 10^8 at k = 19, and
    # holds under HOLD_CAP slots up to k = 19
    for k in (17, 18, 19):
        n = nth_squarefree(k)
        res = brute_force(n, k, "r2")
        assert res.instance_count == 5 * math.comb(n, k)
        assert res.value.lo > 0 and certify_sign(res.witness)[0] == 1
        assert k in _distinct_radicand_counts(res.witness, n), (k, res.witness)
    with pytest.raises(ValueError, match=r"^r2 search needs more than HOLD_CAP"):
        brute_force(nth_squarefree(20), 20, "r2")


def test_hold_cap_counts_what_the_half_lists_hold(monkeypatch):
    # (6, 4, "R"): n = 6 radicands, and on each side the multisets of 6
    # letters of size j <= 4, C(5 + j, j) of them, at 1 + j slots each:
    # 6 + 2 * (1 + 2*6 + 3*21 + 4*56 + 5*126) = 1866
    monkeypatch.setattr(oracle, "HOLD_CAP", 1866)
    assert brute_force(6, 4, "R").instance_count == 9100
    monkeypatch.setattr(oracle, "HOLD_CAP", 1865)
    with pytest.raises(ValueError, match=r"R search needs more than HOLD_CAP = 1865 slots"):
        brute_force(6, 4, "R")
    # (6, 3, "r2"): radicands 1..3 against 4..6, sizes j and 3 - j:
    # 6 + 2 * (1*1 + 2*3 + 3*3 + 4*1) = 46
    monkeypatch.setattr(oracle, "HOLD_CAP", 45)
    with pytest.raises(ValueError, match=r"r2 search needs more than HOLD_CAP = 45 slots"):
        brute_force(6, 3, "r2")


def test_validation():
    with pytest.raises(ValueError):
        brute_force(0, 3, "R")
    with pytest.raises(ValueError):
        brute_force(3, 0, "R")
    with pytest.raises(ValueError):
        brute_force(3, 3, "bogus")
    with pytest.raises(ValueError):
        brute_force(3, 4, "r2")  # needs k distinct radicands <= n
    for k in (2, 4):  # +sqrt(1) k/2 times against -sqrt(1) k/2 times: every sum is 0
        with pytest.raises(ValueError, match=f"r1 at n=1 with even k={k} has only zero sums"):
            brute_force(1, k, "r1")


def _digest(ns, ks, variants=("r1", "r2", "R")):
    h = hashlib.sha256()
    for variant in variants:
        for n in ns:
            for k in ks:
                try:
                    r = brute_force(n, k, variant)
                    item = (r.witness, r.value.lo, r.value.hi, r.value.precision_bits, r.instance_count)
                except ValueError as exc:
                    item = (type(exc).__name__, str(exc))
                h.update(repr((n, k, variant, item)).encode())
    return h.hexdigest()


def test_outputs_are_pinned():
    # SHA-256 of every result, and of every error (r1 with only zero sums,
    # r2 with k > n), for n <= 6 and k <= 3, taken before the three variants
    # shared one enumeration loop; the r1 zero-sum error re-pinned as the
    # ValueError of brute_force's input checks, every other item unchanged
    assert _digest(range(1, 7), range(1, 4)) == "898375ff9077fee4af8124d4356e89970265b6df0cb9170274938547dd4b7dd0"


def test_k4_outputs_are_pinned():
    # the same digest for k = 4 and n <= 7: r1 and R taken before the oracle
    # screened candidates on integer brackets, with the same r1 re-pin; r2
    # taken once its offsets were read against the radical part alone
    assert _digest(range(1, 8), (4,), ("r1", "R")) == "2bdab5d9f6e93c70c81a8e204cf55e5d6a7525eeaf971ba7a0856364053816c1"
    assert _digest(range(1, 8), (4,), ("r2",)) == "162c3c666a470f4feffcb17149a885959b51ee905f37fb036ac0bb4070a66dec"


def test_k6_outputs_are_pinned():
    # the same digest for k = 6 and n <= 8, all three variants, taken before
    # the oracle paired half-multisets instead of walking every multiset
    assert _digest(range(1, 9), (6,)) == "bc44b8a9cc6dc9c51e7cc4e596631466f8148491d1f200f46a3074fb8c7250cf"


def test_k5_outputs_are_pinned(monkeypatch):
    # the same digests for k = 5 and n <= 7: r1 and R taken before the oracle
    # merged each multiset on integers and formed only the offsets that can
    # still beat the best; r2 taken once its offsets were read against the
    # radical part alone, where they had been shifted by the rational part
    # and missed the minimum at n = 5 and 6
    assert _digest(range(1, 8), (5,), ("r1", "R")) == "db2fdd501f8c90d2ed0acb3f537c5d3bd087bf3e1447e14ec1877ce9bd35f820"
    assert _digest(range(1, 8), (5,), ("r2",)) == "61c0dd784d5fe7f40ad4567dae589fb94903342d073d93b1b848d25539ae743d"
    # the screen leaves at most 13 of the 9100 candidates of (6, 4, "R") to
    # the precision ladder
    compare_abs = oracle.compare_abs
    calls = 0

    def counted(left, right):
        nonlocal calls
        calls += 1
        return compare_abs(left, right)

    monkeypatch.setattr(oracle, "compare_abs", counted)
    brute_force(6, 4, "R")
    assert calls <= 13
