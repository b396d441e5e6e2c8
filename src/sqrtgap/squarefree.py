"""Square-free integers: sieve-backed enumeration, decomposition, prime counting.

The library indexes square-free integers starting from 2, so the sequence
runs 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, ...  The density of square-free
integers is 6/pi^2, hence the i-th entry is near pi^2*i/6.
"""

from __future__ import annotations

import math
import threading

_SEGMENT = 1 << 16
_DECOMPOSE_LIMIT = 1 << 64


class _SieveCache:
    """Append-only square-free sieve, grown in whole segments under a lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._limit = 0
        self._flags = bytearray()  # _flags[n] == 1  iff  n is square-free (n >= 1)
        self._values: list[int] = []  # square-free integers >= 2, ascending

    def ensure_limit(self, limit: int) -> None:
        if limit <= self._limit:
            return
        with self._lock:
            if limit <= self._limit:
                return
            new_limit = max(limit, 2 * self._limit, _SEGMENT)
            new_limit = -(-new_limit // _SEGMENT) * _SEGMENT
            old = self._limit
            # Sieve only the fresh range; earlier segments are never redone.
            seg = bytearray(b"\x01") * (new_limit - old)
            if old == 0:
                seg[0] = 0
            for p in range(2, math.isqrt(new_limit - 1) + 1):
                step = p * p
                first = max(step, ((old + step - 1) // step) * step)
                seg[first - old :: step] = bytes(len(range(first, new_limit, step)))
            self._flags.extend(seg)
            self._values.extend(n for n in range(max(old, 2), new_limit) if self._flags[n])
            self._limit = new_limit

    def ensure_count(self, count: int) -> None:
        while len(self._values) < count:
            self.ensure_limit(max(self._limit + _SEGMENT, int(count * 1.7) + 16))

    def value(self, i: int) -> int:
        self.ensure_count(i)
        return self._values[i - 1]

    def is_squarefree(self, n: int) -> bool:
        self.ensure_limit(n + 1)
        return bool(self._flags[n])


_sieve = _SieveCache()

_prime_lock = threading.Lock()
_prime_limit = 0
_primes: list[int] = []


def _ensure_primes(limit: int) -> list[int]:
    global _prime_limit, _primes
    if limit <= _prime_limit:
        return _primes
    with _prime_lock:
        if limit <= _prime_limit:
            return _primes
        new_limit = max(limit, 2 * _prime_limit, 1 << 10)
        flags = bytearray(b"\x01") * (new_limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(new_limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, new_limit + 1, p)))
        _primes = [n for n in range(2, new_limit + 1) if flags[n]]
        _prime_limit = new_limit
        return _primes


def nth_squarefree(i: int) -> int:
    """Return the i-th square-free integer counting from 2 (1-indexed)."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    return _sieve.value(i)


def squarefree_upto(i: int) -> list[int]:
    """Return the first i square-free integers >= 2 as a list."""
    if i < 1:
        raise ValueError(f"count must be >= 1, got {i}")
    _sieve.ensure_count(i)
    return _sieve._values[:i]


def is_squarefree(n: int) -> bool:
    """True iff no perfect square > 1 divides n."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n < (1 << 24):
        return _sieve.is_squarefree(n)
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
    for p in _ensure_primes(cube_root):
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
    """pi(n): the number of primes <= n.  Supported for n < 2**32."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    if n >= (1 << 32):
        raise ValueError("prime counting supports n < 2**32")
    if n < 2:
        return 0
    primes = _ensure_primes(n)
    # bisect over the cached ascending prime list
    lo, hi = 0, len(primes)
    while lo < hi:
        mid = (lo + hi) // 2
        if primes[mid] <= n:
            lo = mid + 1
        else:
            hi = mid
    return lo
