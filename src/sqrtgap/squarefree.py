"""Square-free integers: sieve-backed enumeration, decomposition, prime counting.

The library indexes square-free integers starting from 2, so the sequence
runs 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, ...  The density of square-free
integers is 6/pi^2, hence the i-th entry is near pi^2*i/6.

One Eratosthenes sieve of [0, limit] yields both sequences: each prime p
clears its multiples from the prime flags and the multiples of p^2 from the
square-free flags.  The cache keeps the primes as a list and the square-free
integers as flags (as a list they would take about 90 MB at the cap), grows
by doubling, and never sieves past MAX_SIEVE_LIMIT: a request that would is
rejected with ValueError before anything is allocated.

decimal_str, quoted_int and quoted_fraction turn integers into text for
reports and error messages: they live here, in the module that imports
nothing from the package, so that every module can quote through them.
"""

from __future__ import annotations

import bisect
import math
import threading
from decimal import Decimal
from itertools import compress, count, islice

# Covers the primes up to the cube root of 2**64 that squarefree_decompose needs.
MAX_SIEVE_LIMIT = 1 << 22
DECOMPOSE_LIMIT = 1 << 64
# nth_squarefree counts flags a block at a time: an index below 2032 reads at most one block
_BLOCK = 4096

_lock = threading.Lock()
_limit = -1  # the cache covers [0, _limit]
_primes: list[int] = []  # primes <= _limit, ascending
_squarefree = bytearray()  # _squarefree[m] == 1 iff 2 <= m <= _limit is square-free


def decimal_str(n: int) -> str:
    """str(n), through a Decimal: exact, and unlike str(int) not bound by
    the interpreter's int-to-str digit limit."""
    return str(Decimal(n))


def quoted_int(n: int) -> str:
    """n as an error message quotes it: in full up to 2^16 bits, through
    decimal_str (about 8 ms at 2^16 bits), and past that by its sign and bit
    length, since its digits would take seconds to form."""
    if n.bit_length() <= 1 << 16:
        return decimal_str(n)
    return f"a {'negative ' if n < 0 else ''}{n.bit_length()}-bit integer"


def quoted_fraction(x) -> str:
    """A Fraction (or an int) as str(x) writes it, its numerator and
    denominator each quoted through quoted_int."""
    num = quoted_int(x.numerator)
    return num if x.denominator == 1 else f"{num}/{quoted_int(x.denominator)}"


def _sieve(limit: int) -> tuple[list[int], bytearray]:
    """The cached primes and square-free flags, re-sieved until they cover [0, limit]."""
    global _limit, _primes, _squarefree
    # checked whatever the cache holds, so the cap does not depend on history
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"sieve limit {quoted_int(limit)} exceeds MAX_SIEVE_LIMIT = {MAX_SIEVE_LIMIT}")
    if limit > _limit:
        with _lock:
            if limit > _limit:
                new_limit = min(max(limit, 2 * _limit, 1 << 10), MAX_SIEVE_LIMIT)
                prime = bytearray(b"\x01") * (new_limit + 1)
                squarefree = bytearray(b"\x01") * (new_limit + 1)
                prime[:2] = squarefree[:2] = b"\x00\x00"
                for p in range(2, math.isqrt(new_limit) + 1):
                    if prime[p]:
                        square = p * p
                        prime[square::p] = bytes(len(range(square, new_limit + 1, p)))
                        squarefree[square::square] = bytes(len(range(square, new_limit + 1, square)))
                # odd candidates only, through a view: an int per even number
                # would cost time, and a copy of the odd flags memory
                _primes = [2, *compress(range(3, new_limit + 1, 2), memoryview(prime)[3::2])]
                _squarefree = squarefree
                _limit = new_limit
    return _primes, _squarefree


def nth_squarefree(i: int) -> int:
    """Return the i-th square-free integer counting from 2 (1-indexed).

    The sieve reads [0, end) with end = 2i + 16, which always holds i of
    them: at most x * sum(1/p^2) < 0.46x integers in [1, x] are divisible by
    the square of a prime, so more than 1.08i integers in [2, 2i + 16) are
    square-free.  Whole blocks are counted in C until one holds the i-th
    flag, and a block that reaches end holds it uncounted; only [start, end)
    is read position by position, and only up to that flag.
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {quoted_int(i)}")
    end = 2 * i + 16
    flags = _sieve(end)[1]
    start = 0
    while start + _BLOCK < end and (held := flags.count(1, start, start + _BLOCK)) < i:
        i -= held
        start += _BLOCK
    return next(islice(compress(count(start), flags[start:end]), i - 1, None))


def squarefree_upto(i: int) -> list[int]:
    """Return the first i square-free integers >= 2 as a list."""
    if i < 1:
        raise ValueError(f"count must be >= 1, got {quoted_int(i)}")
    # [0, 2i + 16) holds i of them, as nth_squarefree shows
    return list(islice(compress(count(), _sieve(2 * i + 16)[1]), i))


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
        raise ValueError(f"expected a positive integer, got {quoted_int(n)}")
    if n >= DECOMPOSE_LIMIT:
        raise ValueError(f"decomposition supports n < 2**64, got {n.bit_length()} bits")
    a, s = 1, 1
    m = n
    cube_root = round(m ** (1.0 / 3.0)) + 2
    for p in _sieve(cube_root)[0]:
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
        raise ValueError(f"expected a nonnegative integer, got {quoted_int(n)}")
    return bisect.bisect_right(_sieve(n)[0], n)
