import math
import random
import tracemalloc

import pytest

from sqrtgap import squarefree
from sqrtgap.bounds import QIAN_WANG_MAX_K, certify_lower_bound, qian_wang_instance, root_separation_log10
from sqrtgap.exactnum import Enclosure, RadicalSum
from sqrtgap.lattice import BASIS_MAX_DIM, build_basis, scaled_nearest_sqrt
from sqrtgap.oracle import brute_force
from sqrtgap.reduction import complete_to_unimodular
from sqrtgap.squarefree import (
    MAX_SIEVE_LIMIT,
    is_squarefree,
    nth_squarefree,
    prime_count,
    squarefree_decompose,
    squarefree_upto,
)


def _is_squarefree_by_trial(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def _is_prime_by_trial(n: int) -> bool:
    return n >= 2 and _is_squarefree_by_trial(n) and all(n % p for p in range(2, math.isqrt(n) + 1))


def _decompose_by_trial(n: int) -> tuple[int, int]:
    a, s, p = 1, 1, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        a *= p ** (e // 2)
        s *= p ** (e % 2)
        p += 1
    return a, s


@pytest.fixture
def empty_sieve(monkeypatch):
    """An empty sieve cache for one test; the module's cache comes back after."""
    monkeypatch.setattr(squarefree, "_limit", -1)
    monkeypatch.setattr(squarefree, "_primes", [])
    monkeypatch.setattr(squarefree, "_squarefree", bytearray())


def test_one_cache_serves_primes_and_squarefree_integers(empty_sieve):
    # each request below needs more of the sieve than the ones before it
    assert prime_count(3000) == sum(map(_is_prime_by_trial, range(3001)))
    first_limit = squarefree._limit
    values = squarefree_upto(2500)  # sieves [0, 5016]
    assert squarefree._limit > first_limit
    assert values == [m for m in range(2, values[-1] + 1) if _is_squarefree_by_trial(m)]
    assert len(values) == 2500
    # cube root about 22 800, past the limit so far; 9973 < 10007 are primes
    n = 12 * 9973**2 * 10007
    assert round(n ** (1 / 3)) > squarefree._limit
    assert squarefree_decompose(n) == _decompose_by_trial(n) == (2 * 9973, 3 * 10007)
    assert squarefree._limit > 22800
    assert prime_count(20000) == sum(map(_is_prime_by_trial, range(20001)))
    assert squarefree_upto(2500) == values


def test_prime_count_admits_the_cap(empty_sieve):
    assert prime_count(MAX_SIEVE_LIMIT) == 295947
    assert squarefree._limit == MAX_SIEVE_LIMIT


def test_nth_squarefree_examples():
    assert nth_squarefree(1) == 2
    assert nth_squarefree(10) == 15  # 2,3,5,6,7,10,11,13,14,15
    assert nth_squarefree(100) == 165


def test_nth_squarefree_rejects_bad_index():
    with pytest.raises(ValueError):
        nth_squarefree(0)


def test_sequence_strictly_increasing_and_squarefree():
    values = squarefree_upto(2000)
    assert all(a < b for a, b in zip(values, values[1:]))
    for v in values[:500]:
        assert _is_squarefree_by_trial(v)


def test_density_envelope():
    # the i-th square-free integer tracks (pi^2/6) * i within O(sqrt(i))
    for i in (100, 1000, 10000):
        assert abs(nth_squarefree(i) - math.pi**2 * i / 6) <= 5 * math.sqrt(i)


def test_decompose_examples():
    assert squarefree_decompose(4) == (2, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(7) == (1, 7)


def test_decompose_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        a, s = squarefree_decompose(n)
        assert a * a * s == n
        assert _is_squarefree_by_trial(s)
    # large semiprime cofactor branch
    a, s = squarefree_decompose(10**18 + 9)
    assert a * a * s == 10**18 + 9


def test_decompose_limits():
    with pytest.raises(ValueError):
        squarefree_decompose(0)
    with pytest.raises(ValueError):
        squarefree_decompose(1 << 64)


def test_is_squarefree():
    assert is_squarefree(1)
    assert is_squarefree(2)
    assert not is_squarefree(8)
    assert not is_squarefree(49)
    assert is_squarefree(165)


def _peak_bytes(call):
    """Result of call() and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_is_squarefree_below_old_branch_allocates_no_sieve():
    # is_squarefree once sieved every n < 2**24; 2**24 - 1 = 9*5*7*13*17*241
    result, peak = _peak_bytes(lambda: is_squarefree((1 << 24) - 1))
    assert result is False
    assert peak < 1 << 20


def test_is_squarefree_matches_trial_division_across_old_sieve_branch():
    for n in list(range(1, 2000)) + list(range((1 << 24) - 200, (1 << 24) + 200)):
        assert is_squarefree(n) == _is_squarefree_by_trial(n), n


def test_sieve_cap_rejects_before_allocating():
    # the smallest count whose sieve [0, 2i + 16) passes the cap
    count = (MAX_SIEVE_LIMIT - 16) // 2 + 1
    for call, arg in (
        (nth_squarefree, count),
        (squarefree_upto, count),
        (prime_count, MAX_SIEVE_LIMIT + 1),
    ):
        def attempt():
            with pytest.raises(ValueError, match="MAX_SIEVE_LIMIT"):
                call(arg)

        assert _peak_bytes(attempt)[1] < 1 << 20, call.__name__


def test_nth_squarefree_reads_the_sieve_without_a_list(empty_sieve):
    # the largest admitted index, whose sieve [0, 2i + 16] reaches the cap; once
    # the sieve is warm, a list of the first i values would add about 72 MB
    largest = (MAX_SIEVE_LIMIT - 16) // 2
    assert nth_squarefree(largest) == 3449667
    assert _peak_bytes(lambda: nth_squarefree(largest))[1] < 1 << 20


def test_prime_count():
    assert prime_count(1) == 0
    assert prime_count(2) == 1
    assert prime_count(15) == 6
    assert prime_count(165) == 38
    assert prime_count(10**6) == 78498


def test_concurrent_sieve_reads():
    # the sieve grows under a lock; hammering it from several threads must
    # neither crash nor produce inconsistent values
    from concurrent.futures import ThreadPoolExecutor

    indexes = [(i * 7919) % 30000 + 1 for i in range(200)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(nth_squarefree, indexes))
    for i, value in zip(indexes, results):
        assert value == nth_squarefree(i)


HUGE = 10**5000
DIGITS = "1" + "0" * 5000  # HUGE in decimal, past the default int-to-str limit of 4300 digits


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: nth_squarefree(HUGE), f"sieve limit 2{'0' * 4998}16 exceeds MAX_SIEVE_LIMIT = {MAX_SIEVE_LIMIT}",
                 id="sieve-limit"),
    pytest.param(lambda: nth_squarefree(-HUGE), f"index must be >= 1, got -{DIGITS}", id="nth_squarefree"),
    pytest.param(lambda: squarefree_upto(-HUGE), f"count must be >= 1, got -{DIGITS}", id="squarefree_upto"),
    pytest.param(lambda: is_squarefree(-HUGE), f"expected a positive integer, got -{DIGITS}", id="is_squarefree"),
    pytest.param(lambda: prime_count(-HUGE), f"expected a nonnegative integer, got -{DIGITS}", id="prime_count"),
    pytest.param(lambda: scaled_nearest_sqrt(-HUGE, 3), f"radicand must be >= 1, got -{DIGITS}", id="sqrt-radicand"),
    pytest.param(lambda: scaled_nearest_sqrt(3, -HUGE), f"scale must be >= 1, got -{DIGITS}", id="sqrt-scale"),
    pytest.param(lambda: certify_lower_bound(-HUGE, 10), f"k must be >= 1, got -{DIGITS}", id="basis-k"),
    pytest.param(lambda: certify_lower_bound(HUGE, 10), f"1{'0' * 4999}1 rows exceed BASIS_MAX_DIM = {BASIS_MAX_DIM}",
                 id="basis-rows"),
    pytest.param(lambda: build_basis([-HUGE], 10), f"radicands must be >= 2, got -{DIGITS}", id="build_basis"),
    pytest.param(lambda: brute_force(-HUGE, 2, "R"), f"n must be >= 1, got -{DIGITS}", id="oracle-n"),
    pytest.param(lambda: brute_force(2, -HUGE, "R"), f"k must be >= 1, got -{DIGITS}", id="oracle-k"),
    pytest.param(lambda: brute_force(1, HUGE, "r1"),
                 f"r1 at n=1 with even k={DIGITS} has only zero sums: "
                 f"+sqrt(1) taken 5{'0' * 4999} times cancels -sqrt(1) taken 5{'0' * 4999} times", id="oracle-r1"),
    pytest.param(lambda: brute_force(2, HUGE, "r2"), f"r2 needs k distinct radicands <= n, got k={DIGITS} > n=2",
                 id="oracle-r2"),
    pytest.param(lambda: root_separation_log10(-HUGE, 2), f"n must be >= 2, got -{DIGITS}", id="separation-n"),
    pytest.param(lambda: root_separation_log10(2, -HUGE), f"k must be >= 1, got -{DIGITS}", id="separation-k"),
    pytest.param(lambda: qian_wang_instance(HUGE, 1),
                 f"k must lie in [2, {QIAN_WANG_MAX_K}] (QIAN_WANG_MAX_K), got {DIGITS}", id="qian-wang-k"),
    pytest.param(lambda: Enclosure(0, 1, -HUGE), f"precision_bits must be >= 1, got -{DIGITS}", id="enclosure"),
    pytest.param(lambda: RadicalSum.from_terms([(1, -HUGE)]), f"radicand must be >= 1, got -{DIGITS}",
                 id="radical-sum"),
    pytest.param(lambda: complete_to_unimodular([2 * HUGE, 4 * HUGE], [[1, 0], [0, 1]]),
                 f"vector is not primitive (gcd 2{'0' * 5000})", id="complete_to_unimodular"),
])
def test_a_huge_integer_is_quoted_in_the_library_message(call, message):
    # every module quotes a caller's integer through squarefree.quoted_int, so
    # the interpreter's digit-limit error never replaces the message
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
