import ast
import functools
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from sqrtgap import bounds, cli, exactnum, lattice, reduction, squarefree
from sqrtgap.bounds import (
    DEFAULT_STEP,
    QIAN_WANG_MAX_K,
    LowerBoundCertificate,
    NoCertificateError,
    certification_threshold,
    certify_lower_bound,
    find_lower_bound,
    qian_wang_instance,
    ratio_scan,
    root_separation_log10,
    row_witness,
    upper_bound_from_reduction,
)
from sqrtgap.exactnum import abs_at_most, enclose_radical_sum
from sqrtgap.lattice import LatticeBasis, as_rows, build_basis
from sqrtgap.reduction import ReductionError, bkz
from sqrtgap.squarefree import nth_squarefree, prime_count, squarefree_upto

from reference import first_deciding_rung, lll


def test_threshold_values():
    # k=100: (1 + 100*sqrt(165)/2)^2 + 100^2*165 = 2063785.52...
    assert abs(certification_threshold(100).approx() - 2063785.52) < 0.01
    # k=1: 1 + sqrt(2) + 5/2
    assert abs(certification_threshold(1).approx() - (3.5 + math.sqrt(2))) < 1e-12


def test_threshold_rounds_t_up_by_at_most_k_times_2_pow_minus_64():
    # T_hi = 1 + (5/4)k^2 s + k*x with x = p/q: T < T_hi iff x > sqrt(s) iff
    # p^2 > s*q^2, and T_hi <= T + k*2^-64 iff y = x - 2^-64 <= sqrt(s), all
    # decided in integers
    for k in range(1, 256):
        s = nth_squarefree(k)
        x = (certification_threshold(k).value - 1 - Fraction(5, 4) * k * k * s) / k
        assert x > 0 and x.numerator**2 > s * x.denominator**2, k
        y = x - Fraction(1, 2**64)
        assert y <= 0 or y.numerator**2 <= s * y.denominator**2, k


def test_threshold_bounds_every_k_term_sum():
    # Independently of the derivation: every sum of k terms from
    # {0} ∪ {±√r : 1 <= r <= σ(k)}, each folded into square-free form (a
    # square term joins the integer part), has merged coefficients a with
    # F = (1 + Σ|a|/2)^2 + Σa^2 at most the threshold.  The largest F is
    # T_v = (1 + k*m/2)^2 + (k*m)^2 with m = isqrt(σ(k) // 2): k terms m√2.
    for k in range(1, 7):
        s = nth_squarefree(k)
        radicands = [r for r in range(2, s + 1) if squarefree.is_squarefree(r)]
        zero = (0,) * len(radicands)
        terms = {zero}
        for r in range(1, s + 1):
            a, free = squarefree.squarefree_decompose(r)
            if free > 1:
                i = radicands.index(free)
                terms |= {zero[:i] + (c,) + zero[i + 1 :] for c in (a, -a)}
        sums = {zero}  # the merged coefficients of every multiset of k terms
        for _ in range(k):
            sums = {tuple(x + y for x, y in zip(u, t)) for u in sums for t in terms}
        worst = max((1 + Fraction(sum(map(abs, a)), 2)) ** 2 + sum(x * x for x in a) for a in sums)
        m = math.isqrt(s // 2)
        assert worst == (1 + Fraction(k * m, 2)) ** 2 + (k * m) ** 2, k
        assert worst <= certification_threshold(k).value, k


def test_one_exact_gso_per_certificate(monkeypatch):
    calls = []
    original = lattice.integral_gso

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(lattice, "integral_gso", counting)
    cert = certify_lower_bound(10, 10**20)
    assert cert.threshold_passed
    assert calls == [11]  # verification's pass; the profile reuses it
    # the witness too: the lattice check reads det^2 from that same pass
    calls.clear()
    upper_bound_from_reduction(10, 10**20)
    assert calls == [11]


def test_certify_fails_at_unit_scale():
    cert = certify_lower_bound(3, 1)
    assert not cert.threshold_passed


# k -> e where the converged BKZ minimum first clears the threshold at N = 10^e.
CONVERGED_BOUNDARY = {2: 3, 3: 4, 4: 7, 5: 9, 6: 10, 7: 12, 8: 16, 9: 17, 10: 19}


# k -> e where certify_lower_bound first passes at N = 10^e.
FIRST_CERTIFIED = {1: 1, 2: 3, 3: 4, 4: 7, 5: 9, 6: 10, 7: 12, 8: 16, 9: 17, 10: 19, 11: 21, 12: 24}
# SHA-256 of (scale, min_gs_norm_sq, threshold_passed, swaps, tours) of every
# certificate below: certify_lower_bound at N = 10^0 .. 10^(e+1), e from
# FIRST_CERTIFIED, so through the determinant floor and the first pass, and
# every probe of find_lower_bound(k, step=10, start_scale=10^k) at k = 10, 12,
# 14, whose warm probes start from the previous rows.  Any change to what a
# certificate reports, or to where a reduction stopped, shows here.
PINNED_CERTIFICATE_DIGEST = "c907f9da66b46ab89217f94c4a10e48707141e0b72313d374b858b1d2242e242"


def test_certificate_outputs_are_pinned():
    ladder = [certify_lower_bound(k, 10**e) for k, first in FIRST_CERTIFIED.items() for e in range(first + 2)]
    assert [(c.k, c.scale) for c in ladder if c.threshold_passed] == [
        (k, 10**e) for k, first in FIRST_CERTIFIED.items() for e in (first, first + 1)
    ]
    searches = []
    for k in (10, 12, 14):
        find_lower_bound(k, step=10, start_scale=10**k, progress=searches.append)
    h = hashlib.sha256()
    for c in ladder + searches:
        h.update(repr((c.scale, c.min_gs_norm_sq, c.threshold_passed, c.swaps, c.tours)).encode())
    assert h.hexdigest() == PINNED_CERTIFICATE_DIGEST


def test_certify_pass_and_fields():
    cert = certify_lower_bound(3, 10**8)
    assert cert.threshold_passed
    assert cert.k == 3 and cert.sigma_k == 5 and cert.scale == 10**8
    assert cert.difference == cert.min_gs_norm_sq - cert.threshold.value
    # passing means the norm clears T_hi, so also T = 1 + (5/4)k^2 s + k*sqrt(s),
    # decided here by isolating the radical
    assert cert.difference > 0
    above_rational_part = cert.min_gs_norm_sq - 1 - Fraction(5, 4) * cert.k**2 * cert.sigma_k
    assert above_rational_part > 0 and above_rational_part**2 > cert.k**2 * cert.sigma_k
    # the LLL alone clears it; a failed attempt above the determinant floor
    # (N = 4090 at k = 3) converges, so it ran tours
    assert cert.swaps > 0 and cert.tours == 0
    assert certify_lower_bound(3, 5000).tours >= 1
    # 10^2 lies below the floor: decided without a reduction
    assert cert.threshold.unreachable(10**2, 4)
    assert certify_lower_bound(3, 10**2).tours == 0


def test_certificate_verdict_is_derived_from_its_numbers():
    threshold = certification_threshold(3)
    fields = dict(k=3, scale=10**8, threshold=threshold, swaps=0, tours=0)
    at_bar = LowerBoundCertificate(min_gs_norm_sq=threshold.value, **fields)
    assert at_bar.threshold_passed is False and at_bar.difference == 0
    assert at_bar.sigma_k == 5
    above = LowerBoundCertificate(min_gs_norm_sq=threshold.value + Fraction(1, 10**30), **fields)
    assert above.threshold_passed is True and above.difference == Fraction(1, 10**30)
    # a verdict cannot be stored beside the numbers it would contradict
    with pytest.raises(TypeError):
        LowerBoundCertificate(min_gs_norm_sq=Fraction(1), threshold_passed=True, **fields)


def test_below_the_determinant_floor_nothing_is_reduced(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a basis built or reduced below the determinant floor")

    monkeypatch.setattr(bounds, "build_basis", forbidden)
    monkeypatch.setattr(bounds, "bkz", forbidden)
    for k, scale in [(3, 1), (3, 10**2), (10, 10**18), (30, 10**73)]:
        cert = certify_lower_bound(k, scale)
        assert not cert.threshold_passed
        assert cert.swaps == cert.tours == 0
        # the input basis's squared Gram-Schmidt norms are N^2, 1, ..., 1
        assert cert.min_gs_norm_sq == 1
        assert cert.difference == 1 - cert.threshold.value
        assert cert.sigma_k == nth_squarefree(k)


def test_certificate_reads_its_floor_verdict():
    cert = certify_lower_bound(3, 4000)
    assert cert.below_floor is True and cert.swaps == cert.tours == 0
    assert certify_lower_bound(3, 10**4).below_floor is False


def _tree(obj) -> ast.AST:
    return ast.parse(inspect.getsource(obj))


def test_certificate_stack_imports_nothing_from_exactnum():
    for module in (squarefree, lattice, reduction):
        for node in ast.walk(_tree(module)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                assert not any("exactnum" in name for name in names), module.__name__
    # every name exactnum defines at its top level, and the module itself
    defined = {"exactnum"}
    for node in _tree(exactnum).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            defined |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    used = {n.id for n in ast.walk(_tree(bounds.certification_threshold)) if isinstance(n, ast.Name)}
    assert not used & defined


def test_determinant_floor_boundary_at_k3(monkeypatch):
    # T_hi = 229/4 + 3*sqrt(5) + (below 3*2^-64) = 63.958..., and N^2 <= T_hi^4
    # iff N <= T_hi^2 = 4090.67...
    threshold = certification_threshold(3)
    assert threshold.unreachable(4090, 4) and not threshold.unreachable(4091, 4)
    calls = []

    def counting(basis, **kwargs):
        calls.append(basis)
        return bkz(basis, **kwargs)

    monkeypatch.setattr(bounds, "bkz", counting)
    assert certify_lower_bound(3, 4090).tours == 0 and calls == []
    assert not certify_lower_bound(3, 4091).threshold_passed
    assert len(calls) == 1


@functools.cache
def converged_profiles():
    # (k, e, converged BKZ profile at N = 10^e) for every cell around each
    # boundary, reduced once and shared by the two tests below
    return [
        (k, e, bkz(build_basis(squarefree_upto(k), 10**e)).profile)
        for k, boundary in CONVERGED_BOUNDARY.items()
        for e in range(boundary - 2, boundary + 2)
    ]


def test_certify_verdict_matches_converged_bkz_near_the_boundary():
    for k, e, profile in converged_profiles():
        verdict = certification_threshold(k).exceeded_by(profile.min_norm_sq)
        assert verdict == (e >= CONVERGED_BOUNDARY[k])
        assert certify_lower_bound(k, 10**e).threshold_passed == verdict, (k, e)


def test_determinant_floor_bounds_every_converged_profile():
    # min ||b_i*||^(2n) <= prod ||b_i*||^2 = det^2 for every basis, so no
    # converged basis clears the threshold where the floor holds
    for k, e, profile in converged_profiles():
        threshold = certification_threshold(k)
        assert profile.min_norm_sq ** (k + 1) <= profile.gram_det == 10 ** (2 * e)
        if threshold.unreachable(10**e, k + 1):
            assert not threshold.exceeded_by(profile.min_norm_sq), (k, e)


def test_find_lower_bound_rejects_step_one():
    with pytest.raises(ValueError):
        find_lower_bound(3, step=1)
    with pytest.raises(ValueError, match="scale must be >= 1, got 0"):  # build_basis's own check
        find_lower_bound(3, start_scale=0)


def test_find_lower_bound_progress_and_result():
    seen = []
    cert = find_lower_bound(3, step=10, start_scale=1, progress=seen.append)
    assert cert.threshold_passed
    assert seen[-1].threshold_passed
    assert all(not c.threshold_passed for c in seen[:-1])
    # scales grow geometrically from 1
    assert [c.scale for c in seen] == [10**i for i in range(len(seen))]


def test_find_lower_bound_exhaustion(monkeypatch):
    monkeypatch.setattr(bounds, "DEFAULT_MAX_ITERS", 3)  # read at call time
    seen = []
    with pytest.raises(NoCertificateError, match=r"no certificate for k=3 in DEFAULT_MAX_ITERS = 3 scales \(last N = 4\)$"):
        find_lower_bound(3, step=2, start_scale=1, progress=seen.append)
    assert len(seen) == 3
    assert not any(c.threshold_passed for c in seen)


def test_upper_bound_witness_structure():
    k, scale = 6, 10**30
    witness = upper_bound_from_reduction(k, scale)
    # membership: first coordinate reconstructs from coefficients and offset
    basis = build_basis(squarefree_upto(k), scale)
    scaled_roots = [row[0] for row in basis.rows[1:]]
    rebuilt = sum(a * m for a, m in zip(witness.coefficients, scaled_roots)) - witness.offset * scale
    assert rebuilt == witness.first_coord
    assert witness.bound.hi <= witness.row_inequality_rhs()
    assert witness.n_effective == max(
        a * a * s for a, s in zip(witness.coefficients, witness.radicands) if a
    )
    # the witness value re-encloses consistently at higher precision
    finer = enclose_radical_sum(witness.value, 4 * witness.bound.precision_bits).abs()
    assert witness.bound.lo <= finer.hi and finer.lo <= witness.bound.hi


def test_every_reduced_row_satisfies_row_inequality():
    k, scale = 5, 10**20
    basis = build_basis(squarefree_upto(k), scale)
    reduced = bkz(basis)
    converted = 0
    for row in reduced.rows:
        w = row_witness(basis, row)
        if w is None:
            continue
        converted += 1
        assert w.bound.hi <= w.row_inequality_rhs()
    assert converted >= k  # at most one row can be coefficient-free


@pytest.mark.parametrize("k, log10_n", [(3, 8), (6, 30), (17, 60)])  # k = 17: 18 rows
def test_witness_reports_the_enclosure_that_decided_it(k, log10_n):
    w = upper_bound_from_reduction(k, 10**log10_n)
    rhs_sq = w.row_inequality_rhs() ** 2
    assert w.bound == abs_at_most(w.value, rhs_sq)[1]
    assert w.bound.precision_bits == first_deciding_rung(w.value, rhs_sq)


def test_row_witness_skips_zero_coefficients():
    basis = build_basis([2, 3], 10)
    assert row_witness(basis, (10, 0, 0)) is None


def test_row_witness_rejects_non_lattice_row():
    basis = build_basis([2, 3], 10)
    with pytest.raises(ValueError):
        row_witness(basis, (11, 1, 0))  # 11 != 14*1 - b*10 for any integer b


@pytest.mark.parametrize("fault", ["sublattice", "off_lattice"])
def test_rows_that_do_not_generate_the_lattice_are_rejected(monkeypatch, capsys, fault):
    def faulty_bkz(basis, *, until=None):
        rows = as_rows(basis)
        if fault == "sublattice":
            # a doubled generator: the rows reduce lattice vectors, but of a
            # sublattice of determinant 2N, so only the determinant can tell
            rows[1] = tuple(2 * x for x in rows[1])
        else:
            # a generator moved one unit off the lattice: the rows reduce a
            # lattice of the same determinant N, so only the coordinates can tell
            rows[1] = (rows[1][0] + 1,) + rows[1][1:]
        return bkz(rows, until=until)

    monkeypatch.setattr(bounds, "bkz", faulty_bkz)
    with pytest.raises(ReductionError, match="lattice"):
        certify_lower_bound(4, 10**10)
    with pytest.raises(ReductionError, match="lattice"):
        upper_bound_from_reduction(4, 10**10)
    with pytest.raises(ReductionError, match="lattice"):
        ratio_scan([4], [10])
    assert cli.main(["certify", "--k", "4", "--N", "10^10"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "lattice" in out.err

    # The same faults on warm probes only, the ones whose bkz receives rows
    # rather than a LatticeBasis: the search's cold first probe is sound and
    # fails at N = 1, and its first warm probe must be caught.
    warm = []

    def faulty_when_warm(basis, *, until=None):
        if isinstance(basis, LatticeBasis):
            return bkz(basis, until=until)
        warm.append(basis)
        return faulty_bkz(basis, until=until)

    monkeypatch.setattr(bounds, "bkz", faulty_when_warm)
    with pytest.raises(ReductionError, match="lattice"):
        find_lower_bound(4, step=10, start_scale=1)
    assert len(warm) == 1
    assert cli.main(["lower-bound", "--k", "4", "--step", "10", "--n-start", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "lattice" in out.err


@pytest.mark.parametrize(
    "k, step, start",
    [(k, 10, 10**k) for k in range(3, 13)] + [(10, DEFAULT_STEP, None), (15, DEFAULT_STEP, None)],
)
def test_warm_search_is_no_weaker_than_the_cold_walk(k, step, start):
    warm = find_lower_bound(k, step=step, start_scale=start)
    scale = 10 ** (2 * k) if start is None else start
    while scale < warm.scale:  # every cold probe below the warm result fails
        assert not certify_lower_bound(k, scale).threshold_passed
        scale *= step


def test_witness_at_16_rows_keeps_its_strength_on_the_cheap_path():
    # The pool's strongest k = 15 witness: BKZ-10 after the 3/4 pre-pass would
    # weaken it to 10^-76.6234; the window that spans the basis keeps it, and
    # needs fewer swaps than the cold 99/100 LLL alone.
    scale = 10**80 * (10**9 + 523) // 10**9
    witness = upper_bound_from_reduction(15, scale)
    hi = witness.bound.hi
    assert abs(math.log10(hi.numerator) - math.log10(hi.denominator) + 76.63547289357933) < 1e-9
    assert 0 < witness.swaps < lll(build_basis(squarefree_upto(15), scale)).swaps
    assert witness.tours >= 1


def test_witness_where_shortest_vectors_tie_keeps_its_strength():
    # At k = 14, N = 10^10 two vectors of squared length 29 tie for the first
    # row.  The spanning window's tie rule picks the one the cold BKZ-10
    # reducer before it kept, so the witness row is the same up to sign.
    witness = upper_bound_from_reduction(14, 10**10)
    assert witness.coefficients == (2, -2, 2, 0, 2, -1, -1, 1, 1, -3, 0, 3, 2, 2)
    # the row's |value|: the bound decided at 64 bits is 2e-8 wider in log10
    # than this record, so the record is checked on a finer re-enclosure
    hi = enclose_radical_sum(witness.value, 4 * witness.bound.precision_bits).abs().hi
    assert abs(math.log10(hi.numerator) - math.log10(hi.denominator) + 11.01517101575832) < 1e-9


def test_upper_bound_validates():
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        upper_bound_from_reduction(0, 100)
    with pytest.raises(ValueError, match="scale must be >= 1, got 0"):
        upper_bound_from_reduction(3, 0)


def test_upper_bound_admits_what_the_basis_admits():
    # N = 1, which check_basis_size admits: the lattice is Z^4 and bkz returns
    # its unit vectors, of which (0, 0, 0, 1) gives the smallest witness
    witness = upper_bound_from_reduction(3, 1)
    assert (witness.coefficients, witness.offset) == ((0, 0, 1), 2)  # sqrt(5) - 2
    assert witness.bound.hi <= witness.row_inequality_rhs() == Fraction(1, 2)


def test_root_separation_values():
    assert abs(root_separation_log10(165, 100, "R") - (-468635490828)) <= 1
    assert abs(root_separation_log10(15, 10, "R") - (-60)) <= 2
    # k=1: exponent 2^0 = 1, bound 1/(2*sqrt(n))
    assert abs(root_separation_log10(9, 1, "R") - (-math.log10(2 * 3))) < 1e-12
    # r1 variant uses k*sqrt(n)
    assert abs(root_separation_log10(9, 1, "r1") - (-math.log10(3))) < 1e-12


def test_root_separation_monotone():
    # increasing k or n never increases the bound
    for variant in ("r1", "R"):
        prev = None
        for k in (1, 2, 3, 5, 8, 13):
            cur = root_separation_log10(100, k, variant)
            if prev is not None:
                assert cur <= prev + 1e-9
            prev = cur
        prev = None
        for n in (2, 5, 10, 100, 1000):
            cur = root_separation_log10(n, 7, variant)
            if prev is not None:
                assert cur <= prev + 1e-9
            prev = cur


def test_root_separation_counts_primes_only_as_far_as_the_exponent_needs():
    # pi(8160) = 1023, pi(8161) = 1024, pi(8192) = pi(8193) = 1028; k = 1000
    # gives finite values, every other case here overflows a double and raises
    for n in (8160, 8161, 8192, 8193, 10**6):
        for k in (1000, 1023, 1024, 1025, 2000):
            exponent = min(k, prime_count(n)) - 1
            base_log10 = math.log10(2 * k) + 0.5 * math.log10(n)
            expected = -(2.0**exponent) * base_log10 if exponent <= 1023 else -math.inf
            if math.isfinite(expected):
                assert root_separation_log10(n, k) == expected, (n, k)
            else:
                with pytest.raises(ValueError):
                    root_separation_log10(n, k)


def test_root_separation_beyond_old_prime_count_range():
    # n >= 2**32 was rejected while pi(n) was sieved in full
    assert root_separation_log10(10**12, 10) == -(2**9) * (math.log10(20) + 6)


def test_root_separation_validates():
    with pytest.raises(ValueError):
        root_separation_log10(1, 5)
    with pytest.raises(ValueError):
        root_separation_log10(10, 0)
    with pytest.raises(ValueError):
        root_separation_log10(10, 5, "r2")


def test_qian_wang_k2_t1():
    inst = qian_wang_instance(2, 1)
    # |sqrt(1) - 2*sqrt(2) + sqrt(3)| vs 1/(2^2 * 1^(3/2)) = 0.25
    assert inst.rhs_sq == Fraction(1, 16)
    enc = enclose_radical_sum(inst.value, 64).abs()
    assert abs(enc.approx() - 0.09637631717731280) < 1e-12
    assert abs_at_most(inst.value, inst.rhs_sq)[0]


def test_qian_wang_radicand_folding():
    # t=2, k=2: radicands 2, 3, 4; the sqrt(4) folds into the offset
    inst = qian_wang_instance(2, 2)
    assert all(s in (2, 3) for _, s in inst.value.terms)


def test_qian_wang_holds_on_grid():
    for k in range(2, 7):
        for t in (1, 7, 31, 204, 1000):
            inst = qian_wang_instance(k, t)
            assert abs_at_most(inst.value, inst.rhs_sq)[0]


def test_qian_wang_decision_on_both_sides_of_the_value():
    # thresholds just below and just above |value|^2 decide False and True,
    # as the Enclosure decision |value|^2 <= rhs_sq does; the one 2^-200 below
    # needs rungs past 64 bits
    inst = qian_wang_instance(4, 100)
    fine = enclose_radical_sum(inst.value, 1024).abs()
    for scale, want in ((1 - Fraction(1, 2**20), False), (1 - Fraction(1, 2**200), False),
                        (1 + Fraction(1, 2**20), True), (1 + Fraction(1, 2**200), True)):
        bound = fine.lo if scale < 1 else fine.hi
        assert abs_at_most(inst.value, bound * bound * scale)[0] is want


def test_qian_wang_nonzero():
    for k in range(2, 7):
        for t in (1, 10, 100):
            assert not qian_wang_instance(k, t).value.is_zero()


def test_qian_wang_validates():
    with pytest.raises(ValueError):
        qian_wang_instance(1, 1)
    with pytest.raises(ValueError):
        qian_wang_instance(2, 0)
    # coefficients take about k^2/2 bits, so the cap is checked before them
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="QIAN_WANG_MAX_K"):
            qian_wang_instance(QIAN_WANG_MAX_K + 1, 1)
        # predicted to decide at about 12 700 bits (k - log2 rhs), so it is
        # rejected before any coefficient is formed
        with pytest.raises(ValueError, match="about 12672 bits > QIAN_WANG_MAX_BITS = 8000"):
            qian_wang_instance(1024, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ratio_scan_shape_and_determinism():
    cells = ratio_scan([3, 4], [8, 12])
    assert [(c.k, c.log10_scale) for c in cells] == [(3, 8), (3, 12), (4, 8), (4, 12)]
    for c in cells:
        assert c.ratio > 0
        assert c.shortest_row_norm_sq >= c.min_gs_norm_sq


def test_ratio_scan_fails_whole_on_a_failed_cell(monkeypatch, capsys):
    def bkz_failing_at_k2(basis, *, until=None):
        if basis.k == 2:
            raise ReductionError("swap budget exhausted")
        return bkz(basis, until=until)

    monkeypatch.setattr(bounds, "bkz", bkz_failing_at_k2)
    with pytest.raises(ReductionError, match="swap budget exhausted"):
        ratio_scan([2, 3], [6])
    # the CLI reports a failed cell as upper-bound reports the same failure:
    # exit 2, no report, one line on stderr
    for argv in (["ratio-scan", "--k", "2,3", "--log10n", "6"], ["upper-bound", "--k", "2", "--N", "10^6"]):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "sqrtgap: swap budget exhausted\n"
    monkeypatch.undo()
    assert cli.main(["ratio-scan", "--k", "2,3", "--log10n", "6"]) == 0


@pytest.mark.parametrize(
    "k_list, log10_list",
    [([0], [10]), ([-3], [10]), ([3, lattice.BASIS_MAX_DIM], [10]), ([3], [8, -1])],
)
def test_ratio_scan_rejects_out_of_range_input_before_any_cell(monkeypatch, k_list, log10_list):
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(bounds, "_scan_cell", no_cell)
    with pytest.raises(ValueError):
        ratio_scan(k_list, log10_list)


def test_no_library_path_reaches_the_fraction_gso(monkeypatch):
    def forbidden(rows):
        raise AssertionError("a test-only reference was called")

    monkeypatch.setattr(lattice, "fraction_gso", forbidden)
    monkeypatch.setattr(reduction, "fraction_gso", forbidden)
    # nor the Bareiss determinant, at every module that could bind it
    for module in (lattice, bounds, reduction):
        monkeypatch.setattr(module, "determinant", forbidden, raising=False)
    assert certify_lower_bound(10, 10**20).threshold_passed
    assert find_lower_bound(5).threshold_passed
    upper_bound_from_reduction(5, 10**20)
    assert ratio_scan([5], [20])[0].ratio > 0
    assert lattice.gram_schmidt([(3, 0), (1, 1)]).norms_sq == (9, 1)


def test_ratio_scan_validates():
    with pytest.raises(ValueError):
        ratio_scan([], [10])


def test_ratio_scan_refuses_a_huge_exponent_before_forming_its_power():
    # 10**(10**9) alone would take minutes and hundreds of MB to form
    code = (
        "from sqrtgap import ratio_scan\n"
        "ratio_scan([2], [10**9])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "ValueError: log10 scale 1000000000 puts 10^e past BASIS_MAX_BITS = 1048576"
    )


def test_certificate_scales_match_table_order():
    # the k=10 bound certifies by 1e20, the scale of the published table row
    cert = find_lower_bound(10, step=10**5, start_scale=10**10)
    assert cert.threshold_passed
    assert cert.scale <= 10**25


def test_certificate_scale_k20():
    # k=20 (radicand height 33) certifies around 1e50, the published scale
    cert = find_lower_bound(20, step=10**5, start_scale=10**40)
    assert cert.threshold_passed
    assert cert.sigma_k == 33
    assert cert.scale <= 10**55
