import math
import random

import pytest

from sqrtgap.squarefree import (
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
