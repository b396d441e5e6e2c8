import math
import random
from fractions import Fraction

import pytest

from sqrtgap import exactnum
from sqrtgap.bounds import qian_wang_instance
from sqrtgap.exactnum import (
    Enclosure,
    NEGATIVE,
    POSITIVE,
    PrecisionExhausted,
    RadicalSum,
    ZERO,
    abs_at_most,
    abs_bracket,
    certify_sign,
    compare_abs,
    dyadic_decimal,
    enclose_radical_sum,
    radical_sum_bracket,
    terms_bracket,
)
from sqrtgap.lattice import round_half_up, scaled_nearest_sqrt


@pytest.mark.parametrize(
    "num, den, nearest",
    [(3, 2, 2), (-3, 2, -1), (5, 2, 3), (-5, 2, -2), (7, 3, 2), (-7, 3, -2), (0, 5, 0)]
    + [(n, 1, n) for n in (-7, -1, 0, 1, 12)],
)
def test_round_half_up(num, den, nearest):
    assert round_half_up(num, den) == nearest


def test_scaled_nearest_sqrt_examples():
    assert scaled_nearest_sqrt(1, 7) == 7
    assert scaled_nearest_sqrt(2, 100) == 141  # 141.42...
    assert scaled_nearest_sqrt(2, 10) == 14  # 14.142...


def test_scaled_nearest_sqrt_half_cases():
    # a tie needs 4*scale^2*s to be an odd square, which an even number never
    # is, so halves cannot occur; these round the nearest way
    assert scaled_nearest_sqrt(25, 1) == 5
    assert scaled_nearest_sqrt(2, 2) == 3  # 2.828 rounds to 3


def test_scaled_nearest_sqrt_bracket_property():
    rng = random.Random(2)
    for _ in range(500):
        s = rng.randrange(1, 10**6)
        scale = rng.randrange(1, 10**12)
        r = scaled_nearest_sqrt(s, scale)
        m = 4 * scale * scale * s
        # round-half-up: scale*sqrt(s) in [r - 1/2, r + 1/2)
        assert (2 * r - 1) ** 2 <= m
        assert m < (2 * r + 1) ** 2


def test_sqrt_bracket_and_width():
    for s in (2, 3, 5, 165, 2**40 + 1):
        for bits in (16, 64, 100):
            lo, hi = terms_bracket(((1, s),), bits)
            assert lo * lo <= s << 2 * bits <= hi * hi
            assert hi - lo <= 1


def test_sqrt_bracket_exact_squares():
    assert terms_bracket(((1, 49),), 64) == (7 << 64, 7 << 64)


def test_radical_sum_canonicalization():
    v = RadicalSum.from_terms([(1, 8)])  # sqrt(8) = 2*sqrt(2)
    assert v.terms == ((2, 2),)
    v = RadicalSum.from_terms([(3, 4)], offset=1)  # 3*sqrt(4) = 6
    assert v.terms == () and v.offset == -5
    v = RadicalSum.from_terms([(1, 2), (1, 2), (-1, 8)])  # cancels exactly
    assert v.is_zero()
    v = RadicalSum.from_terms([(1, 12), (1, 3)])  # 2*sqrt(3) + sqrt(3)
    assert v.terms == ((3, 3),)


def test_radical_sum_rejects_bad_radicand():
    with pytest.raises(ValueError):
        RadicalSum.from_terms([(1, 0)])


def test_enclose_empty_sum_is_exact_zero():
    enc = enclose_radical_sum(RadicalSum.from_terms([]), 64)
    assert enc.lo == enc.hi == 0


def test_enclose_examples():
    # 2*sqrt(2) - sqrt(3) - 1 ~ 0.0963763171773128
    v = RadicalSum.from_terms([(2, 2), (-1, 3)], offset=1)
    enc = enclose_radical_sum(v, 64)
    assert abs(enc.approx() - 0.09637631717731280) < 1e-15
    assert enc.hi - enc.lo <= Fraction(3, 2**64)
    # a coarse enclosure still brackets the rounded decimal
    coarse = enclose_radical_sum(v, 16)
    assert coarse.lo <= Fraction(963763, 10**7) <= coarse.hi
    # sqrt(2) - 1 ~ 0.4142135623730951
    v = RadicalSum.from_terms([(1, 2)], offset=1)
    enc = enclose_radical_sum(v, 64)
    assert abs(enc.approx() - 0.41421356237309515) < 1e-15


def _interval_sum_reference(value: RadicalSum, bits: int) -> tuple[Fraction, Fraction]:
    """Endpoints by interval arithmetic on Fractions: each square root's
    2^-bits bracket from math.isqrt, scaled by its coefficient (endpoints
    swapped when it is negative), summed, then shifted by the offset."""
    lo = hi = Fraction(-value.offset)
    unit = Fraction(1, 1 << bits)
    for coeff, radicand in value.terms:
        m = math.isqrt(radicand << 2 * bits)
        root_lo, root_hi = m * unit, (m + (m * m != radicand << 2 * bits)) * unit
        a, b = (root_lo, root_hi) if coeff >= 0 else (root_hi, root_lo)
        lo += coeff * a
        hi += coeff * b
    return lo, hi


def test_enclosure_endpoints_are_the_exact_interval_sum():
    rng = random.Random(5)
    for _ in range(200):
        # radicands up to 60 include squares and square multiples, which fold
        terms = [(rng.randint(-10**6, 10**6), rng.randint(1, 60)) for _ in range(rng.randint(0, 6))]
        v = RadicalSum.from_terms(terms, offset=rng.randint(-10**9, 10**9))
        for bits in (16, 64, 1024):
            enc = enclose_radical_sum(v, bits)
            assert (enc.lo, enc.hi) == _interval_sum_reference(v, bits)
            assert enc.precision_bits == bits
    folded = RadicalSum.from_terms([(-3, 8), (2, 9), (5, 2)], offset=4)  # -6√2 + 6 + 5√2 - 4
    assert folded.terms == ((-1, 2),) and folded.offset == -2
    enc = enclose_radical_sum(folded, 64)
    assert (enc.lo, enc.hi) == _interval_sum_reference(folded, 64)


def test_enclose_rejects_low_precision():
    with pytest.raises(ValueError):
        enclose_radical_sum(RadicalSum.from_terms([(1, 2)]), 8)


def test_enclosure_monotone_refinement():
    rng = random.Random(3)
    for _ in range(50):
        terms = [(rng.randint(-5, 5), rng.randint(1, 30)) for _ in range(rng.randint(0, 4))]
        v = RadicalSum.from_terms(terms, offset=rng.randint(-3, 3))
        coarse = enclose_radical_sum(v, 32)
        fine = enclose_radical_sum(v, 64)
        finest = enclose_radical_sum(v, 128)
        assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi
        assert fine.lo <= finest.lo <= finest.hi <= fine.hi


def test_enclosure_width_bound():
    v = RadicalSum.from_terms([(3, 2), (-2, 3), (5, 7)])
    for bits in (16, 32, 64):
        enc = enclose_radical_sum(v, bits)
        assert enc.hi - enc.lo <= Fraction(3 + 2 + 5, 2**bits)


def test_certify_sign_examples():
    sign, _ = certify_sign(RadicalSum.from_terms([(1, 2), (1, 3)], offset=3))
    assert sign == POSITIVE  # sqrt(2) + sqrt(3) - 3 = 0.146...
    sign, enc = certify_sign(RadicalSum.from_terms([(1, 2), (-1, 2)]))
    assert sign == ZERO and enc.lo == enc.hi == 0
    sign, enc = certify_sign(RadicalSum.from_terms([(2, 2), (-1, 3)], offset=1))
    assert sign == POSITIVE
    assert Fraction(962, 10**4) <= enc.lo and enc.hi <= Fraction(964, 10**4)
    sign, _ = certify_sign(RadicalSum.from_terms([(1, 2)], offset=2))
    assert sign == NEGATIVE  # sqrt(2) - 2 < 0


def test_certify_sign_agrees_with_exact_zero_test():
    # disguised zeros and near-zeros must never be confused
    rng = random.Random(4)
    for _ in range(100):
        base = [(rng.randint(-4, 4), rng.randint(1, 20)) for _ in range(3)]
        v = RadicalSum.from_terms(base, offset=rng.randint(-5, 5))
        sign, _ = certify_sign(v)
        assert (sign == ZERO) == v.is_zero()


def test_certify_sign_escalates_on_pell_near_misses():
    # Pell convergents p/q of sqrt(2) give |p - q*sqrt(2)| ~ 1/(2p); with
    # q ~ 1e11 the 64-bit enclosure is far wider than the value, so the
    # doubling loop has to run.
    p, q = 3, 2
    while q < 10**11:
        p, q = p + 2 * q, p + q
    value = RadicalSum.from_terms([(-q, 2)], offset=-p)  # p - q*sqrt(2)
    sign, enc = certify_sign(value)
    assert sign == (POSITIVE if p * p - 2 * q * q > 0 else NEGATIVE)
    assert enc.lo > 0 or enc.hi < 0
    assert enc.precision_bits > 64  # escalation actually happened


def _pell_near_miss(min_q: int) -> RadicalSum:
    p, q = 3, 2
    while q < min_q:
        p, q = p + 2 * q, p + q
    return RadicalSum.from_terms([(-q, 2)], offset=-p)  # p - q*sqrt(2)


def test_refinement_stops_at_the_precision_cap(monkeypatch):
    pell = _pell_near_miss(10**11)
    assert certify_sign(pell)[1].precision_bits == 128  # the 64, 128, ... ladder
    inst = qian_wang_instance(4, 10**6)
    assert abs_at_most(inst.value, inst.rhs_sq)[0]
    monkeypatch.setattr(exactnum, "DEFAULT_PRECISION_CAP", 64)
    with pytest.raises(PrecisionExhausted):
        certify_sign(pell)
    with pytest.raises(PrecisionExhausted):
        compare_abs(pell, _pell_near_miss(10**12))
    with pytest.raises(PrecisionExhausted):
        abs_at_most(inst.value, inst.rhs_sq)


def test_compare_abs():
    a = RadicalSum.from_terms([(1, 2)], offset=1)  # 0.4142
    b = RadicalSum.from_terms([(1, 3)], offset=1)  # 0.7320
    assert compare_abs(a, b) == -1
    assert compare_abs(b, a) == 1
    assert compare_abs(a, a.negate()) == 0
    assert compare_abs(a, a) == 0


def _reference_ladder(decide):
    bits = 64
    while True:
        decision = decide(bits)
        if decision is not None:
            return decision
        bits *= 2


def _reference_sign(value: RadicalSum):
    """certify_sign decided on Enclosure endpoints: the reference for its integer rungs."""
    if value.is_zero():
        return ZERO, Enclosure(Fraction(0), Fraction(0), 64)

    def decide(bits):
        enc = enclose_radical_sum(value, bits)
        if enc.lo > 0:
            return POSITIVE, enc
        if enc.hi < 0:
            return NEGATIVE, enc
        return None

    return _reference_ladder(decide)


def _reference_compare_abs(left: RadicalSum, right: RadicalSum) -> int:
    """compare_abs decided on Enclosure endpoints: the reference for its integer rungs."""
    if left == right or left == right.negate():
        return 0

    def decide(bits):
        el, er = enclose_radical_sum(left, bits).abs(), enclose_radical_sum(right, bits).abs()
        return -1 if el.hi < er.lo else 1 if er.hi < el.lo else None

    return _reference_ladder(decide)


def _reference_abs_at_most(value: RadicalSum, bound_sq: Fraction):
    """abs_at_most decided on Enclosure endpoints: the reference for its integer rungs."""
    if value.is_zero():
        return 0 <= bound_sq, Enclosure(Fraction(0), Fraction(0), 64)

    def decide(bits):
        enc = enclose_radical_sum(value, bits).abs()
        if enc.hi * enc.hi <= bound_sq:
            return True, enc
        if enc.lo * enc.lo > bound_sq:
            return False, enc
        return None

    return _reference_ladder(decide)


def _bracket_samples() -> list[RadicalSum]:
    """Random sums, Pell near-misses that straddle zero at the first rungs,
    a disguised zero, and the negation of each."""
    rng = random.Random(11)
    values = []
    for _ in range(25):
        terms = [(rng.randint(-6, 6), rng.randint(1, 40)) for _ in range(rng.randint(0, 4))]
        v = RadicalSum.from_terms(terms)
        # offset at the nearest integer, so magnitudes are below 1/2 and close
        lo, hi = radical_sum_bracket(v, 64)
        values.append(RadicalSum(v.terms, round_half_up(lo + hi, 2 << 64)))
    values += [_pell_near_miss(q) for q in (10, 10**3, 10**6, 10**11, 10**12)]
    values.append(RadicalSum.from_terms([(1, 2), (1, 2), (-1, 8)]))  # exactly 0
    return values + [v.negate() for v in values]


def test_bracket_is_the_enclosure_numerators():
    for v in _bracket_samples():
        for bits in (16, 17, 64, 100, 1024):
            lo, hi = radical_sum_bracket(v, bits)
            enc = enclose_radical_sum(v, bits)
            assert (Fraction(lo, 2**bits), Fraction(hi, 2**bits)) == (enc.lo, enc.hi)
            a_lo, a_hi = abs_bracket(lo, hi)
            assert (Fraction(a_lo, 2**bits), Fraction(a_hi, 2**bits)) == (enc.abs().lo, enc.abs().hi)
    with pytest.raises(ValueError):
        radical_sum_bracket(RadicalSum.from_terms([(1, 2)]), 15)


def test_abs_bracket_cases():
    assert abs_bracket(2, 5) == (2, 5)
    assert abs_bracket(-5, -2) == (2, 5)
    assert abs_bracket(-5, 2) == (0, 5)
    assert abs_bracket(-2, 5) == (0, 5)
    assert abs_bracket(0, 0) == (0, 0)


def test_integer_decisions_match_the_enclosure_reference():
    samples = _bracket_samples()
    straddles = [v for v in samples if radical_sum_bracket(v, 64)[0] < 0 < radical_sum_bracket(v, 64)[1]]
    assert len(straddles) >= 4  # the Pell near-misses at 10^11 and 10^12, both signs
    for v in samples:
        assert certify_sign(v) == _reference_sign(v)
    for a in samples:
        for b in samples:
            assert compare_abs(a, b) == _reference_compare_abs(a, b), (str(a), str(b))
    decided_true = decided_false = 0
    for v in samples:
        fine = enclose_radical_sum(v, 1024).abs()
        # squares of bounds 2^-20 relative below and above |value|, zero, and a negative one
        below, above = fine.lo * (1 - Fraction(1, 2**20)), fine.hi * (1 + Fraction(1, 2**20))
        for bound_sq in (below * below, above * above, Fraction(0), Fraction(-1)):
            result = abs_at_most(v, bound_sq)
            assert result == _reference_abs_at_most(v, bound_sq), (str(v), bound_sq)
            decided_true += result[0]
            decided_false += not result[0]
    assert decided_true > len(samples) and decided_false > len(samples)


def test_enclosure_algebra():
    e = Enclosure(Fraction(1, 4), Fraction(1, 2), 16)
    assert (-e).lo == Fraction(-1, 2)
    assert e.abs() == e
    f = Enclosure(Fraction(-1, 4), Fraction(1, 8), 16)
    assert f.abs().lo == 0 and f.abs().hi == Fraction(1, 4)
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0), 16)


def test_dyadic_decimal():
    assert dyadic_decimal(Fraction(3, 4)) == "0.75"
    assert dyadic_decimal(Fraction(-5, 8)) == "-0.625"
    assert dyadic_decimal(Fraction(7)) == "7"
    with pytest.raises(ValueError):
        dyadic_decimal(Fraction(1, 3))
