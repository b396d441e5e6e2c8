"""Exact integer, rational, and interval arithmetic for sums of square roots.

Everything here is exact or outward-rounded.  An Enclosure is a pair of
dyadic rationals guaranteed to bracket a real value; a RadicalSum's
bracket at p bits is two exact integer sums over 2^p, built from integer
square-root brackets, its only rounding and always outward (a certificate
rounds on integers in lattice and never calls this module).  Every
decision climbs one precision ladder (refine) and compares those
integers; Fractions are built only for a reported Enclosure.  Sign
decisions are therefore certificates, never floating point guesses: a
RadicalSum is exactly zero iff its canonical form (integer coefficients
over distinct square-free radicands) vanishes, because square roots of
distinct square-free integers are linearly independent over the
rationals, and any nonzero value separates from zero at finite precision.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, TypeVar

from . import squarefree
from .squarefree import decimal_str, quoted_fraction, quoted_int

DEFAULT_PRECISION_CAP = 1 << 20
DEFAULT_START_BITS = 64
MIN_PRECISION_BITS = 16

NEGATIVE, ZERO, POSITIVE = -1, 0, 1


class PrecisionExhausted(RuntimeError):
    """Raised when a sign could not be separated within the precision cap."""


def abs_bracket(lo, hi):
    """Bracket of |x| from a bracket [lo, hi] of x (integers or Fractions)."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


class _EnclosureFields(NamedTuple):
    lo: Fraction
    hi: Fraction
    precision_bits: int


class Enclosure(_EnclosureFields):
    """Interval [lo, hi] of dyadic rationals containing a real value."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction, precision_bits: int) -> "Enclosure":
        if lo > hi:
            raise ValueError(f"inverted interval [{quoted_fraction(lo)}, {quoted_fraction(hi)}]")
        if precision_bits < 1:
            raise ValueError(f"precision_bits must be >= 1, got {quoted_int(precision_bits)}")
        return super().__new__(cls, lo, hi, precision_bits)

    @classmethod
    def _make(cls, fields: Iterable) -> "Enclosure":  # _replace builds through _make
        return cls(*fields)

    def abs(self) -> "Enclosure":
        lo, hi = abs_bracket(self.lo, self.hi)
        return Enclosure(Fraction(lo), Fraction(hi), self.precision_bits)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo, self.precision_bits)

    def approx(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __repr__(self) -> str:  # through a Decimal: float() overflows past 1.8e308
        lo, hi = (f"{Decimal(x.numerator) / x.denominator:.6g}" for x in (self.lo, self.hi))
        return f"Enclosure({lo}, {hi}, bits={self.precision_bits})"


@lru_cache(maxsize=4096)
def _sqrt_bracket(radicand: int, bits: int) -> tuple[int, int]:
    """Return integers (m_lo, m_hi) with m_lo/2^bits <= sqrt(radicand) <= m_hi/2^bits."""
    m = math.isqrt(radicand << (2 * bits))
    if m * m == radicand << (2 * bits):
        return m, m
    return m, m + 1


class RadicalSum(NamedTuple):
    """Exact value sum(a_i * sqrt(s_i)) - offset in canonical form.

    Canonical means: radicands are pairwise distinct square-free integers
    >= 2 in increasing order, all coefficients nonzero, and rational terms
    (radicand 1) are folded into the offset.  Construct via from_terms, or
    from the terms that merge_terms returns.
    """

    terms: tuple[tuple[int, int], ...]  # (coefficient, radicand)
    offset: int = 0

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]], offset: int = 0) -> "RadicalSum":
        folded: list[tuple[int, int]] = []
        for coeff, radicand in terms:
            if radicand < 1:
                raise ValueError(f"radicand must be >= 1, got {quoted_int(radicand)}")
            if coeff:
                a, s = squarefree.squarefree_decompose(radicand)
                folded.append((coeff * a, s))
        canon, rational = merge_terms(folded)
        return cls(canon, offset - rational)

    def is_zero(self) -> bool:
        return not self.terms and self.offset == 0

    def negate(self) -> "RadicalSum":
        return RadicalSum(tuple((-c, s) for c, s in self.terms), -self.offset)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces: list[str] = []
        for c, s in self.terms:
            term = f"{'' if abs(c) == 1 else decimal_str(abs(c))}√{decimal_str(s)}"
            if not pieces:
                pieces.append(term if c > 0 else f"-{term}")
            else:
                pieces.append(f"{'+' if c > 0 else '-'} {term}")
        if self.offset:
            if not pieces:
                pieces.append(decimal_str(-self.offset))
            else:
                pieces.append(f"{'-' if self.offset > 0 else '+'} {decimal_str(abs(self.offset))}")
        return " ".join(pieces)


def merge_terms(terms: Iterable[tuple[int, int]]) -> tuple[tuple[tuple[int, int], ...], int]:
    """Canonical form of sum(c * sqrt(s)) over square-free s >= 1.

    Returns the RadicalSum terms (nonzero coefficients over distinct
    radicands >= 2, in increasing order) and the rational part, the sum of
    the coefficients at s = 1.
    """
    merged: dict[int, int] = {}
    rational = 0
    for coeff, s in terms:
        if s == 1:
            rational += coeff
        else:
            merged[s] = merged.get(s, 0) + coeff
    return tuple((c, s) for s, c in sorted(merged.items()) if c), rational


def radical_sum_bracket(value: RadicalSum, precision_bits: int = DEFAULT_START_BITS) -> tuple[int, int]:
    """Integers (lo, hi) with lo/2^p <= value <= hi/2^p, at p = precision_bits."""
    return terms_bracket(value.terms, precision_bits, value.offset)


def terms_bracket(terms: Iterable[tuple[int, int]], precision_bits: int, offset: int = 0) -> tuple[int, int]:
    """Integers (lo, hi) bracketing sum(c * sqrt(s)) - offset over 2^p.

    Each endpoint is one exact integer sum: coefficient times the lower or
    upper square-root bracket, the two swapped for a negative coefficient,
    minus the offset.  Any terms with radicands >= 1 are bracketed; merging
    equal radicands, as a RadicalSum's terms are, only narrows the pair and
    leaves lo + hi unchanged.  The only width comes from the brackets: at p bits
    hi - lo is at most sum(|a_i|), and brackets at higher precision nest
    inside those at lower precision.  Every precision-ladder decision
    compares these integers; two brackets at the same p share the
    denominator 2^p.
    """
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be >= {MIN_PRECISION_BITS}")
    lo = hi = -offset << precision_bits
    for coeff, radicand in terms:
        m_lo, m_hi = _sqrt_bracket(radicand, precision_bits)
        if coeff < 0:
            m_lo, m_hi = m_hi, m_lo
        lo += coeff * m_lo
        hi += coeff * m_hi
    return lo, hi


def _dyadic_enclosure(lo: int, hi: int, precision_bits: int) -> Enclosure:
    unit = 1 << precision_bits
    return Enclosure(Fraction(lo, unit), Fraction(hi, unit), precision_bits)


def enclose_radical_sum(value: RadicalSum, precision_bits: int = DEFAULT_START_BITS) -> Enclosure:
    """Outward-rounded enclosure of a RadicalSum: its bracket over 2^p.

    At p bits the result is at most sum(|a_i|) * 2^-p wide, and enclosures
    at higher precision nest inside those at lower precision.
    """
    return _dyadic_enclosure(*radical_sum_bracket(value, precision_bits), precision_bits)


_T = TypeVar("_T")


def refine(decide: Callable[[int], _T | None], describe: Callable[[], str]) -> _T:
    """The first decision decide(bits) makes on the precision ladder.

    The ladder is the library's one precision policy: it runs
    DEFAULT_START_BITS, twice that, ... and stops at DEFAULT_PRECISION_CAP,
    both read when refine is called; decide returns None while its
    enclosures leave the question open.  Raises PrecisionExhausted, with
    describe() naming the question, when the cap decides nothing.
    """
    bits, max_bits = DEFAULT_START_BITS, DEFAULT_PRECISION_CAP
    while True:
        decision = decide(bits)
        if decision is not None:
            return decision
        if bits >= max_bits:
            raise PrecisionExhausted(f"{describe()} undecided at {bits} bits")
        bits = min(2 * bits, max_bits)


def certify_sign(value: RadicalSum) -> tuple[int, Enclosure]:
    """Certified sign of a RadicalSum, with the separating enclosure.

    Zero is decided exactly from the canonical form; otherwise precision is
    doubled until the enclosure excludes zero.  Never returns a wrong sign.
    Raises PrecisionExhausted past the precision cap (unreachable for
    canonical input, kept as a safety valve).
    """
    if value.is_zero():
        zero = Fraction(0)
        return ZERO, Enclosure(zero, zero, DEFAULT_START_BITS)

    def decide(bits: int) -> tuple[int, Enclosure] | None:
        lo, hi = radical_sum_bracket(value, bits)
        if lo > 0:
            return POSITIVE, _dyadic_enclosure(lo, hi, bits)
        if hi < 0:
            return NEGATIVE, _dyadic_enclosure(lo, hi, bits)
        return None

    return refine(decide, lambda: f"sign of {value}")


def compare_abs(left: RadicalSum, right: RadicalSum) -> int:
    """Compare |left| with |right| exactly: -1, 0, or +1.

    Because canonical forms represent values uniquely, |left| == |right|
    iff left == right or left == -right; every other case separates at
    finite precision.
    """
    if left == right or left == right.negate():
        return 0

    def decide(bits: int) -> int | None:
        # both brackets are over 2^bits, so their numerators compare directly
        l_lo, l_hi = abs_bracket(*radical_sum_bracket(left, bits))
        r_lo, r_hi = abs_bracket(*radical_sum_bracket(right, bits))
        if l_hi < r_lo:
            return -1
        if r_hi < l_lo:
            return 1
        return None

    return refine(decide, lambda: f"order of |{left}| vs |{right}|")


def abs_at_most(value: RadicalSum, bound_sq: Fraction) -> tuple[bool, Enclosure]:
    """Exact decision of |value|^2 <= bound_sq, with the enclosure of |value|
    at the rung that decided it.

    With (lo, hi) the absolute bracket over 2^p and bound_sq = num/den, a
    rung decides True once hi^2 * den <= num * 4^p and False once
    lo^2 * den > num * 4^p.  For a non-negative bound b this is the decision
    |value| <= b on bound_sq = b^2.  A zero value is decided exactly, on
    the first rung: its bracket is (0, 0).
    """
    num, den = bound_sq.numerator, bound_sq.denominator

    def decide(bits: int) -> tuple[bool, Enclosure] | None:
        # (x / 2^bits)^2 against num / den, on integers
        lo, hi = abs_bracket(*radical_sum_bracket(value, bits))
        if hi * hi * den <= num << 2 * bits:
            return True, _dyadic_enclosure(lo, hi, bits)
        if lo * lo * den > num << 2 * bits:
            return False, _dyadic_enclosure(lo, hi, bits)
        return None

    return refine(decide, lambda: f"|{value}|^2 <= {quoted_fraction(bound_sq)}")


def dyadic_decimal(value: Fraction) -> str:
    """Exact decimal string of a dyadic rational (denominator a power of 2)."""
    num, den = value.numerator, value.denominator
    e = den.bit_length() - 1
    if den != 1 << e:
        raise ValueError(f"{quoted_fraction(value)} is not dyadic")
    if e == 0:
        return decimal_str(num)
    scaled = num * 5**e  # value = scaled / 10^e
    sign = "-" if scaled < 0 else ""
    digits = decimal_str(abs(scaled)).rjust(e + 1, "0")
    return f"{sign}{digits[:-e]}.{digits[-e:]}"
