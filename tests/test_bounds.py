import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from sqrtgap import bounds, cli, lattice, reduction
from sqrtgap.bounds import (
    DEFAULT_STEP,
    QIAN_WANG_MAX_K,
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
from sqrtgap.exactnum import enclose_radical_sum, sqrt_enclosure
from sqrtgap.lattice import LatticeBasis, as_rows, build_basis
from sqrtgap.reduction import ReductionError, bkz
from sqrtgap.squarefree import nth_squarefree, prime_count, squarefree_upto


def test_threshold_values():
    # k=100: (1 + 100*sqrt(165)/2)^2 + 100^2*165 = 2063785.52...
    assert abs(certification_threshold(100).approx() - 2063785.52) < 0.01
    # k=1: 1 + sqrt(2) + 5/2
    assert abs(certification_threshold(1).approx() - (3.5 + math.sqrt(2))) < 1e-12


def test_threshold_exact_comparison_against_intervals():
    # radical isolation must agree with a 256-bit interval evaluation
    rng = random.Random(31)
    for _ in range(100):
        k = rng.randint(1, 120)
        thr = certification_threshold(k)
        scale = thr.rational_part + rng.randint(-10**6, 10**6) / Fraction(997)
        probe = max(Fraction(1), scale)
        root = sqrt_enclosure(thr.radicand, 256)
        lo = thr.rational_part + thr.radical_coeff * root.lo
        hi = thr.rational_part + thr.radical_coeff * root.hi
        if probe > hi:
            assert thr.exceeded_by(probe)
        elif probe < lo:
            assert not thr.exceeded_by(probe)
        # probes inside the 256-bit sliver are undecided by intervals; the
        # exact route always decides, just nothing to compare against


def test_threshold_never_equal():
    thr = certification_threshold(7)
    d = thr.rational_part
    # a rational can never equal rational_part + k*sqrt(s): both branches exact
    assert not thr.exceeded_by(d)
    assert thr.exceeded_by(d + thr.radical_coeff * thr.radicand + 1)


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


def test_certify_pass_and_fields():
    cert = certify_lower_bound(3, 10**8)
    assert cert.threshold_passed
    assert cert.k == 3 and cert.sigma_k == 5 and cert.scale == 10**8
    assert cert.difference == cert.min_gs_norm_sq - cert.threshold.rational_part
    # passing means the isolated-radical inequality holds exactly
    assert cert.difference > 0
    assert cert.difference**2 > cert.threshold.radical_coeff**2 * cert.threshold.radicand


def test_find_lower_bound_rejects_step_one():
    with pytest.raises(ValueError):
        find_lower_bound(3, step=1)


def test_find_lower_bound_progress_and_result():
    seen = []
    cert = find_lower_bound(3, step=10, start_scale=1, max_iters=50, progress=seen.append)
    assert cert.threshold_passed
    assert seen[-1].threshold_passed
    assert all(not c.threshold_passed for c in seen[:-1])
    # scales grow geometrically from 1
    assert [c.scale for c in seen] == [10**i for i in range(len(seen))]


def test_find_lower_bound_exhaustion():
    with pytest.raises(NoCertificateError) as info:
        find_lower_bound(3, step=2, start_scale=1, max_iters=3)
    assert info.value.last_certificate is not None
    assert not info.value.last_certificate.threshold_passed


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


def test_row_witness_skips_zero_coefficients():
    basis = build_basis([2, 3], 10)
    assert row_witness(basis, (10, 0, 0)) is None


def test_row_witness_rejects_non_lattice_row():
    basis = build_basis([2, 3], 10)
    with pytest.raises(ValueError):
        row_witness(basis, (11, 1, 0))  # 11 != 14*1 - b*10 for any integer b


@pytest.mark.parametrize("fault", ["sublattice", "off_lattice"])
def test_rows_that_do_not_generate_the_lattice_are_rejected(monkeypatch, capsys, fault):
    def faulty_bkz(basis):
        rows = as_rows(basis)
        if fault == "sublattice":
            # a doubled generator: the rows reduce lattice vectors, but of a
            # sublattice of determinant 2N, so only the determinant can tell
            rows[1] = tuple(2 * x for x in rows[1])
        else:
            # a generator moved one unit off the lattice: the rows reduce a
            # lattice of the same determinant N, so only the coordinates can tell
            rows[1] = (rows[1][0] + 1,) + rows[1][1:]
        return bkz(rows)

    monkeypatch.setattr(bounds, "bkz", faulty_bkz)
    with pytest.raises(ReductionError, match="lattice"):
        certify_lower_bound(4, 10**10)
    with pytest.raises(ReductionError, match="lattice"):
        upper_bound_from_reduction(4, 10**10)
    assert ratio_scan([4], [10])[0].error.startswith("ReductionError")
    assert cli.main(["certify", "--k", "4", "--N", "10^10"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "lattice" in out.err

    # The same faults on warm probes only, the ones whose bkz receives rows
    # rather than a LatticeBasis: the search's cold first probe is sound and
    # fails at N = 1, and its first warm probe must be caught.
    warm = []

    def faulty_when_warm(basis):
        if isinstance(basis, LatticeBasis):
            return bkz(basis)
        warm.append(basis)
        return faulty_bkz(basis)

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


def test_upper_bound_validates():
    with pytest.raises(ValueError):
        upper_bound_from_reduction(0, 100)
    with pytest.raises(ValueError):
        upper_bound_from_reduction(3, 1)


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
    assert inst.satisfied()


def test_qian_wang_radicand_folding():
    # t=2, k=2: radicands 2, 3, 4; the sqrt(4) folds into the offset
    inst = qian_wang_instance(2, 2)
    assert all(s in (2, 3) for _, s in inst.value.terms)


def test_qian_wang_holds_on_grid():
    for k in range(2, 7):
        for t in (1, 7, 31, 204, 1000):
            assert qian_wang_instance(k, t).satisfied()


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
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ratio_scan_shape_and_determinism():
    cells = ratio_scan([3, 4], [8, 12])
    assert [(c.k, c.log10_scale) for c in cells] == [(3, 8), (3, 12), (4, 8), (4, 12)]
    for c in cells:
        assert c.error is None
        assert c.ratio > 0
        assert c.shortest_row_norm_sq >= c.min_gs_norm_sq


def test_ratio_scan_records_cell_errors(monkeypatch):
    def bkz_failing_at_k2(basis):
        if basis.k == 2:
            raise ReductionError("swap budget exhausted")
        return bkz(basis)

    monkeypatch.setattr(bounds, "bkz", bkz_failing_at_k2)
    cells = ratio_scan([2, 3], [6])
    assert cells[0].error == "ReductionError: swap budget exhausted"
    assert cells[1].error is None


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
    assert all(cell.error is None for cell in ratio_scan([5], [20]))
    assert lattice.gram_schmidt([(3, 0), (1, 1)]).norms_sq == (9, 1)


def test_ratio_scan_validates():
    with pytest.raises(ValueError):
        ratio_scan([], [10])


def test_certificate_scales_match_table_order():
    # the k=10 bound certifies by 1e20, the scale of the published table row
    cert = find_lower_bound(10, step=10**5, start_scale=10**10, max_iters=10)
    assert cert.threshold_passed
    assert cert.scale <= 10**25


def test_certificate_scale_k20():
    # k=20 (radicand height 33) certifies around 1e50, the published scale
    cert = find_lower_bound(20, step=10**5, start_scale=10**40, max_iters=10)
    assert cert.threshold_passed
    assert cert.sigma_k == 33
    assert cert.scale <= 10**55
