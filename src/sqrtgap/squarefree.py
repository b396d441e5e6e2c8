"""Square-free integers: sieve-backed enumeration, decomposition, prime counting.

The library indexes square-free integers starting from 2, so the sequence
runs 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, ...  The density of square-free
integers is 6/pi^2, hence the i-th entry is near pi^2*i/6.

Both sieves (square-free integers, primes) are plain re-sieves of [0, limit)
cached in module-level lists, and neither sieves past MAX_SIEVE_LIMIT: a
request that would is rejected with ValueError before anything is allocated.
"""

from __future__ import annotations

import bisect
import math
import threading
from itertools import compress

# Covers the primes up to the cube root of 2**64 that squarefree_decompose needs.
MAX_SIEVE_LIMIT = 1 << 22
_DECOMPOSE_LIMIT = 1 << 64

_lock = threading.Lock()  # guards both caches
_squarefree: list[int] = []  # square-free integers >= 2, ascending
_prime_limit = 0
_primes: list[int] = []  # primes <= _prime_limit, ascending


def _check_limit(limit: int) -> None:
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"sieve limit {limit} exceeds MAX_SIEVE_LIMIT = {MAX_SIEVE_LIMIT}")


def _first_squarefree(i: int) -> list[int]:
    """The cached square-free integers >= 2, re-sieved if it holds fewer than i.

    [0, 2i + 16) always holds i of them: at most x * sum(1/p^2) < 0.46x
    integers in [1, x] are divisible by the square of a prime, so more than
    1.08i integers in [2, 2i + 16) are square-free.
    """
    global _squarefree
    limit = 2 * i + 16
    _check_limit(limit)  # whatever the cache holds, so the cap does not depend on history
    with _lock:
        if len(_squarefree) < i:
            flags = bytearray(b"\x01") * limit
            flags[:2] = b"\x00\x00"
            for p in range(2, math.isqrt(limit - 1) + 1):
                step = p * p
                flags[step::step] = bytes(len(range(step, limit, step)))
            _squarefree = list(compress(range(limit), flags))
        return _squarefree


def _primes_upto(limit: int) -> list[int]:
    """The cached primes, re-sieved until they cover [2, limit]."""
    global _prime_limit, _primes
    if limit <= _prime_limit:
        return _primes
    _check_limit(limit)
    with _lock:
        if limit > _prime_limit:
            new_limit = min(max(limit, 2 * _prime_limit, 1 << 10), MAX_SIEVE_LIMIT)
            flags = bytearray(b"\x01") * (new_limit + 1)
            flags[:2] = b"\x00\x00"
            for p in range(2, math.isqrt(new_limit) + 1):
                if flags[p]:
                    flags[p * p :: p] = bytes(len(range(p * p, new_limit + 1, p)))
            _primes = list(compress(range(new_limit + 1), flags))
            _prime_limit = new_limit
        return _primes


def nth_squarefree(i: int) -> int:
    """Return the i-th square-free integer counting from 2 (1-indexed)."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    return _first_squarefree(i)[i - 1]


def squarefree_upto(i: int) -> list[int]:
    """Return the first i square-free integers >= 2 as a list."""
    if i < 1:
        raise ValueError(f"count must be >= 1, got {i}")
    return _first_squarefree(i)[:i]


def is_squarefree(n: int) -> bool:
    """True iff no perfect square > 1 divides n."""
    return squarefree_decompose(n)[0] == 1


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = a*a*s with s square-free; return (a, s).

    Trial division runs up to the cube root of n, after which the cofactor
    is 1, a prime, a prime square, or a product of two distinct primes; an
    integer square-root check settles which.  Inputs are capped at 2**64,
    which covers every radicand this library constructs.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n >= _DECOMPOSE_LIMIT:
        raise ValueError(f"decomposition supports n < 2**64, got {n.bit_length()} bits")
    a, s = 1, 1
    m = n
    cube_root = round(m ** (1.0 / 3.0)) + 2
    for p in _primes_upto(cube_root):
        if p > cube_root:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            a *= p ** (e // 2)
            if e % 2:
                s *= p
    if m > 1:
        r = math.isqrt(m)
        if r * r == m:
            a *= r
        else:
            s *= m
    return a, s


def prime_count(n: int) -> int:
    """pi(n): the number of primes <= n, for 0 <= n <= MAX_SIEVE_LIMIT."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    return bisect.bisect_right(_primes_upto(n), n)
