import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sqrtgap import cli, reduction
from sqrtgap.bounds import certification_threshold
from sqrtgap.lattice import (
    DependentRowsError,
    build_basis,
    determinant,
    fraction_gso,
    gram_schmidt,
    integral_gso,
    projected_rows,
    update_integral_gso,
)
from sqrtgap.reduction import (
    ReducedBasis,
    ReductionError,
    _IntegralLLL,
    bkz,
    complete_to_unimodular,
    enumerate_shortest,
    lll,
    reduced_profile,
    verify_reduced,
    windows_are_shortest,
)
from sqrtgap.squarefree import squarefree_upto


def _random_invertible(rng, n, span=30):
    while True:
        rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if determinant(rows) != 0:
            return rows


def _apply(transform, rows):
    n = len(rows)
    return tuple(
        tuple(sum(transform[i][u] * rows[u][c] for u in range(n)) for c in range(len(rows[0])))
        for i in range(n)
    )


def _solve_transform(reduced, rows):
    """T with T @ rows == reduced, by exact Gauss-Jordan elimination over Fraction.

    Solves rows^T @ T^T = reduced^T; the right half of the reduced augmented
    matrix is T^T."""
    n = len(rows)
    aug = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(r[i]) for r in reduced]
           for i in range(n)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [[aug[j][n + r] for j in range(n)] for r in range(n)]


def _bkz_with_window(monkeypatch, rows, block_size):
    """bkz with windows of block_size rows at every dimension: spanning where
    block_size >= len(rows), narrow otherwise."""
    monkeypatch.setattr(reduction, "HKZ_MAX_DIM", 1)
    monkeypatch.setattr(reduction, "DEFAULT_BLOCK_SIZE", block_size)
    return bkz(rows)


def _assert_unimodular_image(reduced, rows):
    transform = _solve_transform(reduced, rows)
    assert all(x.denominator == 1 for row in transform for x in row)
    transform = [[int(x) for x in row] for row in transform]
    assert _apply(transform, rows) == tuple(tuple(r) for r in reduced)
    assert determinant(transform) == 1  # |det T|


def test_lll_identity_unchanged():
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rb = lll(rows)
    assert rb.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_lll_small_example_short_and_preserving():
    rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    rb = lll(rows)
    assert determinant(rb.rows) == 2
    assert all(sum(c * c for c in row) <= 2 for row in rb.rows)


def test_reduced_basis_profile_is_that_of_its_rows():
    basis = build_basis(squarefree_upto(5), 10**20)
    rb = lll(basis)
    assert rb.swaps > 0
    assert ReducedBasis(rb.rows, rb.swaps).profile == gram_schmidt(rb.rows)
    with pytest.raises(TypeError):  # the profile is computed, never passed
        ReducedBasis(rb.rows, rb.swaps, rb.profile)
    # the raw basis is not reduced at this scale, so it is no ReducedBasis
    with pytest.raises(ReductionError):
        ReducedBasis(basis.rows, 0)


def test_lll_conditions_and_transform_on_randoms():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(2, 6)
        rows = _random_invertible(rng, n)
        rb = lll(rows)
        _assert_unimodular_image(rb.rows, rows)
        assert determinant(rb.rows) == determinant(rows)
        verify_reduced(rb.rows)  # exact recheck, raises on failure


def test_lll_size_reduction_explicit():
    rb = lll([(1, 0, 0), (4, 1, 0), (27, 8, 1)])
    mu, _ = fraction_gso(list(rb.rows))
    for i in range(3):
        for j in range(i):
            assert 2 * abs(mu[i][j]) <= 1


def _mu_half_open(rows):
    """Whether every mu of the rows' fresh integer GSO is in [-1/2, 1/2)."""
    d, lam = integral_gso(rows)
    return all(-d[j + 1] <= 2 * lam[i][j] < d[j + 1] for i in range(len(rows)) for j in range(i))


def test_every_output_has_mu_in_the_half_open_interval(monkeypatch):
    # The kernel subtracts round_half_up(mu) rows, so mu = +1/2 becomes -1/2
    # wherever a reduction ends: lll, narrow and spanning windows, a target
    # met at once or never.  Small entries make exact halves common: a kernel
    # that kept mu = +1/2 left it in 3 lll, 3 stopped-at-once and 6
    # narrow-window outputs of the 60 small bases below.
    rb = lll([[-4, -4], [-2, -1]])
    assert rb.rows == ((0, -2), (-2, 1)) and _mu_half_open(rb.rows)
    rng = random.Random(34)
    inputs = _pinned_inputs() + [_random_invertible(rng, rng.randint(2, 6), span=6) for _ in range(60)]
    outputs = []
    for rows in inputs:
        outputs += [lll(rows), bkz(rows), bkz(rows, until=lambda x: True), bkz(rows, until=lambda x: False)]
    outputs += [bkz(build_basis(squarefree_upto(k), 10**e), until=certification_threshold(k).exceeded_by)
                for k, e in ((12, 20), (20, 50))]
    for rb in outputs:
        assert _mu_half_open(rb.rows), rb.rows
    for b in (2, 3, 5, 10):
        for rows in inputs:
            assert _mu_half_open(_bkz_with_window(monkeypatch, rows, b).rows), (b, rows)


def test_lll_gs_floor_under_shortest_row():
    basis = build_basis(squarefree_upto(10), 10**50)
    rb = lll(basis)
    prof = reduced_profile(rb)
    shortest_row = min(Fraction(sum(c * c for c in row)) for row in rb.rows)
    assert prof.min_norm_sq <= shortest_row


def test_lll_swap_budget_error(monkeypatch, capsys):
    rows = build_basis(squarefree_upto(6), 10**30).rows
    monkeypatch.setattr(reduction, "_swap_budget", lambda rows: 3)
    with pytest.raises(ReductionError):
        lll(rows)
    assert cli.main(["certify", "--k", "4", "--N", "10^10"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "swap budget" in out.err


def test_bkz_tour_budget_error(monkeypatch, capsys):
    # k = 4 at N = 10^11 takes two tours: one that improves a window, one that
    # confirms.  certify passes there before any tour; upper-bound converges.
    basis = build_basis(squarefree_upto(4), 10**11)
    monkeypatch.setattr(reduction, "_tour_budget", lambda dim: 2)
    converged = bkz(basis)
    assert converged.tours == 2
    monkeypatch.setattr(reduction, "_tour_budget", lambda dim: 1)
    with pytest.raises(ReductionError, match="1 tours"):
        bkz(basis)
    assert cli.main(["upper-bound", "--k", "4", "--N", "10^11"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "tours" in out.err
    monkeypatch.undo()
    assert bkz(basis) == converged


def test_bkz_until_returns_the_first_passing_state(monkeypatch):
    insertions = []

    def counting_update(rows, d, lam, lo, hi):
        insertions.append(lo)
        update_integral_gso(rows, d, lam, lo, hi)

    monkeypatch.setattr(reduction, "update_integral_gso", counting_update)
    basis = build_basis(squarefree_upto(12), 10**20)
    # A target never met: one check after the LLL and one after each
    # insertion, each on the minimum of the rows then; BKZ converges.
    checks = []
    converged = bkz(basis, until=lambda x: checks.append(x) or False)
    assert len(checks) == 1 + len(insertions) and converged.tours >= 2
    assert checks[-1] == converged.profile.min_norm_sq
    # A target first met after an insertion: the reducer takes the same path
    # up to it, and returns that state, whose rows verify.
    target = next(x for x in checks if x > checks[0])
    seen = []
    stopped = bkz(basis, until=lambda x: seen.append(x) or x >= target)
    assert seen == checks[: len(seen)]
    assert [x >= target for x in seen] == [False] * (len(seen) - 1) + [True]
    assert verify_reduced(stopped.rows) == stopped.profile
    assert stopped.profile.min_norm_sq == target
    assert stopped.tours == 1 and stopped.swaps < converged.swaps
    # A target the LLL meets: no tour.
    lll_only = bkz(basis, until=lambda x: True)
    assert lll_only.tours == 0 and lll_only.profile.min_norm_sq == checks[0]


def test_lll_deterministic():
    basis = build_basis(squarefree_upto(8), 10**30)
    a = lll(basis)
    b = lll(basis)
    assert a.rows == b.rows


def test_complete_to_unimodular():
    rng = random.Random(22)
    import math

    for _ in range(60):
        m = rng.randint(1, 6)
        while True:
            x = [rng.randint(-15, 15) for _ in range(m)]
            if math.gcd(*x, 0) == 1:
                break
        identity = [[int(i == j) for j in range(m)] for i in range(m)]
        w = complete_to_unimodular(x, identity)
        assert w[0] == x
        assert determinant(w) == 1
        # on any rows, the same operations give W @ rows without forming W
        width = rng.randint(1, 8)
        rows = [[rng.randint(-50, 50) for _ in range(width)] for _ in range(m)]
        assert complete_to_unimodular(x, rows) == [list(r) for r in _apply(w, rows)]


def test_complete_to_unimodular_rejects_imprimitive():
    identity = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        complete_to_unimodular([2, 4], identity)
    with pytest.raises(ValueError):
        complete_to_unimodular([0, 0], identity)


def test_bkz_block2_is_pairwise_optimal(monkeypatch):
    # with windows of 2 rows every consecutive projected pair must start with
    # its shortest vector (the classic pairwise swap condition)
    basis = build_basis(squarefree_upto(5), 10**12)
    rb = _bkz_with_window(monkeypatch, basis, 2)
    assert windows_are_shortest(rb.rows, 2)


def test_bkz_no_worse_than_lll(monkeypatch):
    basis = build_basis(squarefree_upto(10), 10**50)
    lll_min = reduced_profile(lll(basis)).min_norm_sq
    bkz_min = reduced_profile(_bkz_with_window(monkeypatch, basis, 10)).min_norm_sq
    assert bkz_min >= lll_min


def test_bkz_transform_and_lattice_preservation():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(2, 5)
        rows = _random_invertible(rng, n, span=40)
        rb = bkz(rows)
        _assert_unimodular_image(rb.rows, rows)
        assert determinant(rb.rows) == determinant(rows)


def test_bkz_deterministic():
    basis = build_basis(squarefree_upto(6), 10**25)
    a = bkz(basis)
    b = bkz(basis)
    assert a.rows == b.rows


def test_reduced_profile_positive_and_sandwich_small():
    rng = random.Random(24)
    for _ in range(20):
        k = rng.randint(1, 4)
        scale = rng.randint(2, 10**6)
        basis = build_basis(squarefree_upto(k), scale)
        rb = bkz(basis)
        prof = reduced_profile(rb)
        assert prof.min_norm_sq > 0
        sv = enumerate_shortest(rb.rows)
        assert prof.min_norm_sq <= sv.norm_sq


def test_unreduced_vs_reduced_profile():
    # reduction must lift the Gram-Schmidt floor above the trivial 1
    basis = build_basis(squarefree_upto(5), 10**10)
    assert gram_schmidt(basis).min_norm_sq == 1
    assert reduced_profile(bkz(basis)).min_norm_sq > 1


def test_bkz_window_optimality_postcondition(monkeypatch):
    # after termination, the first vector of every sliding window achieves
    # the exact shortest projected length within that window
    for k, scale, block in [(6, 10**18, 3), (8, 10**24, 5)]:
        rb = _bkz_with_window(monkeypatch, build_basis(squarefree_upto(k), scale), block)
        assert windows_are_shortest(rb.rows, block)


def test_windows_are_shortest_finds_a_shorter_projection(monkeypatch):
    # the check on its own: LLL rows of this basis are not BKZ-3 reduced, and
    # BKZ-10 from a cold LLL at k = 15 is not HKZ
    rows = lll(build_basis(squarefree_upto(10), 10**30)).rows
    assert windows_are_shortest(rows, 2) and not windows_are_shortest(rows, 3)
    bkz10 = _bkz_with_window(monkeypatch, build_basis(squarefree_upto(15), _pool_scale(85)), 10).rows
    assert windows_are_shortest(bkz10, 10) and not windows_are_shortest(bkz10, 16)


def test_windows_are_shortest_of_unreduced_rows_fails_fast():
    # The raw square-root basis at 10^8: searched within its first row
    # (squared length 10^16), the windows run for minutes.
    code = (
        "from sqrtgap import build_basis, squarefree_upto\n"
        "from sqrtgap.reduction import windows_are_shortest\n"
        "windows_are_shortest(build_basis(squarefree_upto(5), 10**8).rows, 6)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1].startswith("sqrtgap.reduction.ReductionError: size reduction violated at (1, 0)")


def _pool_scale(e):
    # one of k = 15's inputs at which BKZ-10 from a cold LLL is not HKZ: e = 85
    return 10**e * (10**9 + 31 * e) // 10**9


def test_default_bkz_is_hkz_up_to_16_rows():
    # The default window spans a basis of at most HKZ_MAX_DIM rows, so every
    # window [i, n) of the converged output starts with its shortest vector;
    # each row's Gram-Schmidt vector starts positive and every mu is in [-1/2, 1/2).
    # Tour 1 puts a shortest vector of the projected lattice at each row i, and
    # the LLL after it never swaps at or before i, so a second tour only confirms.
    inputs = [(k, 10 ** (2 * k)) for k in range(3, 16)] + [(15, _pool_scale(85)), (14, 10**10)]
    for k, scale in inputs:
        reduced = bkz(build_basis(squarefree_upto(k), scale))
        rows = reduced.rows
        assert len(rows) <= reduction.HKZ_MAX_DIM
        assert reduced.tours <= 2, (k, scale)
        assert windows_are_shortest(rows, len(rows)), (k, scale)
        mu, _ = fraction_gso(rows)
        assert all(-1 <= 2 * mu[i][j] < 1 for i in range(len(rows)) for j in range(i)), (k, scale)
        d, lam = integral_gso(rows)
        for v in projected_rows(rows, d, lam, len(rows)):
            assert next(a for a in v if a) > 0, (k, scale)


def test_default_bkz_does_not_depend_on_the_start():
    # A spanning window leaves nothing to the start: ties between equally
    # short projections go to the tie rule's pick, normalize fixes signs and
    # the kernel size reduction, so a unimodular transform of the input changes no
    # row.  At N = 10^10, k = 12..14, equally short vectors tie.
    rng = random.Random(31)
    inputs = [(15, _pool_scale(85)), (12, _pool_scale(60)), (8, 10**30), (12, 10**10), (13, 10**10), (14, 10**10)]
    for k, scale in inputs:
        rows = [list(r) for r in build_basis(squarefree_upto(k), scale).rows]
        moved = [r[:] for r in rows]
        for _ in range(40):
            i, j = rng.sample(range(len(moved)), 2)
            q = rng.choice((-2, -1, 1, 2))
            moved[i] = [a + q * b for a, b in zip(moved[i], moved[j])]
        rng.shuffle(moved)
        assert bkz(moved).rows == bkz(rows).rows, (k, scale)


def test_integral_gso_matches_rational_gso():
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randint(2, 6)
        rows = _random_invertible(rng, n, span=20)
        d, lam = integral_gso(rows)
        mu, norms = fraction_gso([tuple(r) for r in rows])
        for i in range(n):
            assert Fraction(d[i + 1], d[i]) == norms[i]
            for j in range(i):
                assert Fraction(lam[i][j], d[j + 1]) == mu[i][j]
        assert gram_schmidt(rows).norms_sq == tuple(norms)


def test_integral_swap_bookkeeping_consistent():
    # after a full reduction, the incrementally maintained lam/d tables must
    # equal the integral GSO computed afresh from the final rows
    rng = random.Random(26)
    for _ in range(20):
        n = rng.randint(2, 6)
        rows = _random_invertible(rng, n, span=40)
        state = _IntegralLLL(rows)
        state.reduce()
        assert (state.d, state.lam) == integral_gso(state.rows)


def test_lazy_gso_covers_exactly_the_rows_reached(monkeypatch):
    # At every swap, before and after, the data of rows 0..kmax equals a fresh
    # integral GSO of those rows, and no lam row past kmax has been written.
    swap = _IntegralLLL._swap
    seen = []

    def check(state):
        kmax, n = state.kmax, state.n
        d, lam = integral_gso(state.rows[: kmax + 1])
        assert state.d[: kmax + 2] == d
        assert all(state.lam[i][:i] == lam[i][:i] for i in range(kmax + 1))
        assert all(state.lam[i] == [0] * n for i in range(kmax + 1, n))
        assert state.d[kmax + 2 :] == [0] * (n - kmax - 1)

    def checked_swap(state, k):
        check(state)
        swap(state, k)
        check(state)
        seen.append((state.kmax, state.n))

    monkeypatch.setattr(_IntegralLLL, "_swap", checked_swap)
    rng = random.Random(29)
    for k in (6, 9):
        lll(build_basis(squarefree_upto(k), 10 ** (2 * k)))
        _bkz_with_window(monkeypatch, build_basis(squarefree_upto(k), 10 ** (2 * k)), 3)
    for _ in range(10):
        lll(_random_invertible(rng, rng.randint(2, 7), span=60))
    # swaps happened both before LLL reached the last row and after
    assert any(kmax < n - 1 for kmax, n in seen)
    assert any(kmax == n - 1 for kmax, n in seen)


@pytest.mark.parametrize("reduce", [lll, bkz])
def test_row_dependent_on_reduced_rows_raises(reduce):
    # row 2 = 2 * row 0, which LLL only sees once it has reduced rows 0 and 1
    with pytest.raises(DependentRowsError, match="dependent"):
        reduce([(5, 3, 1), (1, 0, 0), (10, 6, 2)])
    with pytest.raises(DependentRowsError, match="row 0"):
        reduce([(0, 0), (1, 0)])


@pytest.mark.parametrize("reduce", [lll, bkz])
def test_empty_input_is_rejected(reduce):
    with pytest.raises(ValueError, match="need at least one row"):
        reduce([])


def test_swap_counts_are_pinned():
    # the lazy GSO follows the eager reducer's exact path; at 16 rows the
    # window spans the basis, so the pre-pass ladder 3/10, 1/2, 3/4 runs
    # (2286 swaps with the 3/4 pass alone, 3713 with no pre-pass)
    for (k, scale), counts in {(20, 10**50): (3776, 3715), (15, 10**80): (1317, 3682)}.items():
        basis = build_basis(squarefree_upto(k), scale)
        assert (bkz(basis).swaps, lll(basis).swaps) == counts


# SHA-256 of the rows and exact Gram-Schmidt norms that lll and bkz return on
# the inputs below; any change to what lll or bkz returns shows here.  Where
# the window spans the basis, bkz runs the 3/4 pre-pass, breaks ties by
# projection and normalizes signs: those 51 of the 132 bkz outputs kept the
# rows of the reducer before HKZ_MAX_DIM up to sign (47 flipped 113 rows).
PINNED_REDUCTION_DIGEST = "313423b56935382d9a35590eb8a2436472154ed52c44fdf395bf4b5342d33cf4"


def _pinned_inputs():
    rng = random.Random(27)
    inputs = [build_basis(squarefree_upto(k), 10 ** (2 * k)).rows for k in range(3, 16)]
    return inputs + [_random_invertible(rng, rng.randint(2, 8), span=60) for _ in range(20)]


def test_reduction_outputs_are_pinned(monkeypatch):
    inputs = _pinned_inputs()
    h = hashlib.sha256()
    for rows in inputs:
        for rb in [lll(rows)] + [_bkz_with_window(monkeypatch, rows, b) for b in (2, 3, 5, 10)]:
            h.update(repr((rb.rows, rb.profile.norms_sq)).encode())
    assert h.hexdigest() == PINNED_REDUCTION_DIGEST


def test_spanning_rows_do_not_depend_on_the_pre_pass(monkeypatch):
    # A spanning bkz without a target converges to rows that are a function
    # of the lattice, so the pre-pass ladder changes only swaps and tours: the 3/4
    # pass alone, or none, gives the same rows and norms on the pinned inputs
    # (k = 3..15 at 10^(2k) among them) and where short vectors tie.
    inputs = _pinned_inputs() + [build_basis(squarefree_upto(k), 10**10).rows for k in (12, 13, 14)]
    inputs.append(build_basis(squarefree_upto(15), _pool_scale(85)).rows)
    ladder = [bkz(rows) for rows in inputs]
    for deltas in ((Fraction(3, 4),), ()):
        monkeypatch.setattr(reduction, "PRECONDITION_DELTAS", deltas)
        for rows, expected in zip(inputs, ladder):
            rb = bkz(rows)
            assert (rb.rows, rb.profile.norms_sq) == (expected.rows, expected.profile.norms_sq)
    monkeypatch.undo()
    # The ladder runs only there: a targeted bkz runs the 3/4 pass alone, and
    # an untargeted bkz above 16 rows runs none.
    passes = []
    reduce = _IntegralLLL.reduce

    def recording_reduce(self, k=1, delta=reduction.DEFAULT_DELTA):
        passes.append(delta)
        reduce(self, k, delta)

    monkeypatch.setattr(_IntegralLLL, "reduce", recording_reduce)

    def pre_passes(basis, **kwargs):
        passes.clear()
        bkz(basis, **kwargs)
        return [delta for delta in passes if delta != reduction.DEFAULT_DELTA]

    spanning = build_basis(squarefree_upto(12), 10**20)
    assert pre_passes(spanning) == [Fraction(3, 10), Fraction(1, 2), Fraction(3, 4)]
    assert pre_passes(spanning, until=lambda x: False) == [Fraction(3, 4)]
    narrow = build_basis(squarefree_upto(20), 10**50)
    assert pre_passes(narrow, until=certification_threshold(20).exceeded_by) == [Fraction(3, 4)]
    assert pre_passes(narrow) == []


# SHA-256 of what lll and bkz return above 16 rows, where the window is
# narrower than the basis: rows, exact Gram-Schmidt norms, swaps and tours
# of three targeted certificates and of plain bkz and lll at k = 20.
PINNED_LARGE_REDUCTION_DIGEST = "42062d9ec0ef676050c3e33a747ae13c91bda8dd553c7fedbfaab3d7fae2f3f5"


def test_reductions_above_16_rows_are_pinned():
    h = hashlib.sha256()
    results = [
        bkz(build_basis(squarefree_upto(k), 10**e), until=certification_threshold(k).exceeded_by)
        for k, e in ((20, 50), (25, 65), (30, 80))
    ]
    basis = build_basis(squarefree_upto(20), 10**50)
    for rb in results + [bkz(basis), lll(basis)]:
        h.update(repr((rb.rows, rb.profile.norms_sq, rb.swaps, rb.tours)).encode())
    assert h.hexdigest() == PINNED_LARGE_REDUCTION_DIGEST


def test_incremental_gso_matches_fresh_gso_after_each_insertion(monkeypatch):
    windows = []

    def checked_update(rows, d, lam, lo, hi):
        update_integral_gso(rows, d, lam, lo, hi)
        assert (d, lam) == integral_gso(rows)
        windows.append((lo, hi, len(rows)))

    monkeypatch.setattr(reduction, "update_integral_gso", checked_update)
    rng = random.Random(28)
    for k in range(3, 11):
        for block in (2, 3, 5):
            _bkz_with_window(monkeypatch, build_basis(squarefree_upto(k), 10 ** (2 * k)), block)
    for _ in range(10):
        _bkz_with_window(monkeypatch, _random_invertible(rng, rng.randint(2, 6), span=60), 3)
    # insertions at the first row, in the middle, and at the last window
    assert any(lo == 0 for lo, _, _ in windows)
    assert any(0 < lo and hi < n for lo, hi, n in windows)
    assert any(hi == n for _, hi, n in windows)


def test_integer_verification_matches_the_fraction_reference(monkeypatch):
    rng = random.Random(30)
    inputs = _pinned_inputs() + [_random_invertible(rng, rng.randint(2, 9)) for _ in range(30)]
    for rows in inputs:
        for rb in (lll(rows), _bkz_with_window(monkeypatch, rows, 3)):
            assert verify_reduced(rb.rows).norms_sq == tuple(fraction_gso(list(rb.rows))[1])


def test_verification_rejects_unreduced_pairs():
    with pytest.raises(ReductionError, match="size reduction violated at \\(1, 0\\): mu = 1"):
        verify_reduced([(1, 0), (1, 1)])
    with pytest.raises(ReductionError, match="Lovasz condition violated between rows 0 and 1"):
        verify_reduced([(3, 0), (0, 1)])
    # both bounds are inclusive: |mu| = 1/2, and ||v1*||^2 = delta * ||v0*||^2 = 99
    assert verify_reduced([(2, 0), (1, 5)]).norms_sq == (4, 25)
    assert verify_reduced([(10, 0, 0, 0), (0, 3, 3, 9)]).norms_sq == (100, 99)
    with pytest.raises(ReductionError, match="Lovasz"):
        verify_reduced([(10, 0, 0, 0), (0, 3, 3, 8)])
