import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from sqrtgap.lattice import (
    BASIS_MAX_BITS,
    BASIS_MAX_DIM,
    DependentRowsError,
    build_basis,
    determinant,
    enumerate_block,
    enumerate_shortest,
    fraction_gso,
    gram_schmidt,
    integral_gso,
    projected_rows,
    scaled_nearest_sqrt,
)
from sqrtgap.exactnum import Enclosure, RadicalSum
from sqrtgap.reduction import bkz, lll
from sqrtgap.squarefree import prime_count, squarefree_upto


def test_basis_dimension_cap_rejects_before_allocating():
    radicands = squarefree_upto(BASIS_MAX_DIM)  # one row past the cap
    assert build_basis(radicands[:-1], 10**50).dim == BASIS_MAX_DIM
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="BASIS_MAX_DIM"):
            build_basis(radicands, 10**50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_basis_size_cap_rejects_before_any_square_root():
    # dim * scale bits past BASIS_MAX_BITS: 2 rows of 2^19 + 1 bits, never built
    scale = 1 << (BASIS_MAX_BITS // 2)
    assert 2 * scale.bit_length() == BASIS_MAX_BITS + 2
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="BASIS_MAX_BITS"):
            build_basis([2], scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert build_basis([2], 10**50).dim == 2


def test_build_basis_examples():
    b = build_basis([2], 10)
    assert b.rows == ((10, 0), (14, 1))  # [10*sqrt(2)] = 14
    b = build_basis([2, 3], 1)
    assert b.rows == ((1, 0, 0), (1, 1, 0), (2, 0, 1))  # [sqrt(2)]=1, [sqrt(3)]=2
    b = build_basis([2, 3, 5], 12345)
    assert b.rows[0] == (12345, 0, 0, 0)


def test_build_basis_validation():
    with pytest.raises(ValueError):
        build_basis([], 10)
    with pytest.raises(ValueError):
        build_basis([4], 10)  # not square-free
    with pytest.raises(ValueError):
        build_basis([2, 2], 10)  # duplicate
    with pytest.raises(ValueError):
        build_basis([1], 10)  # must be >= 2
    with pytest.raises(ValueError):
        build_basis([2], 0)


def test_basis_first_column_is_nearest():
    b = build_basis(squarefree_upto(8), 10**12)
    for row, s in zip(b.rows[1:], b.radicands):
        m = 4 * b.scale * b.scale * s
        r = row[0]
        assert (2 * r - 1) ** 2 <= m < (2 * r + 1) ** 2


def test_coordinates_of_basis_rows_are_unit_vectors():
    basis = build_basis(squarefree_upto(6), 10**12)
    for i, row in enumerate(basis.rows):
        assert basis.coordinates(row) == tuple(int(i == j) for j in range(basis.dim))


def test_coordinates_reject_vectors_off_the_lattice():
    basis = build_basis([2, 3], 10)
    with pytest.raises(ValueError, match="row is not a vector of this lattice"):
        basis.coordinates((11, 1, 0))  # 11 != 14*1 - b*10 for any integer b
    with pytest.raises(ValueError, match="row is not a vector of this lattice"):
        basis.coordinates((10, 0))


def test_coordinates_of_reduced_rows_give_the_rows_back():
    for k in range(3, 16):
        basis = build_basis(squarefree_upto(k), 10 ** (2 * k))
        lifted = build_basis(squarefree_upto(k), 10 ** (2 * k) * 7 + 3)  # another scale N'
        for row in bkz(basis).rows:
            coords = basis.coordinates(row)
            back = [sum(c * b[j] for c, b in zip(coords, basis.rows)) for j in range(basis.dim)]
            assert tuple(back) == row
            assert basis.vector(coords) == row
            # the same coordinates at N' name the same combination of its rows
            at_n = [sum(c * b[j] for c, b in zip(coords, lifted.rows)) for j in range(basis.dim)]
            assert lifted.vector(coords) == tuple(at_n)


def test_vector_rejects_the_wrong_number_of_coordinates():
    basis = build_basis([2, 3], 10)
    with pytest.raises(ValueError):
        basis.vector((1, 2))


def test_gram_schmidt_orthogonal_rows():
    prof = gram_schmidt([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert prof.norms_sq == (1, 1, 1)
    assert prof.min_norm_sq == 1


def test_gram_schmidt_hand_example():
    prof = gram_schmidt([(3, 0), (1, 1)])
    assert prof.norms_sq == (Fraction(9), Fraction(1))


def test_gram_schmidt_unreduced_basis_pitfall():
    # Orthogonalizing the raw basis always ends at exactly 1: the unit tails
    # of rows 1..k survive projection untouched.
    for k, scale in [(3, 10**6), (7, 10**10)]:
        prof = gram_schmidt(build_basis(squarefree_upto(k), scale))
        assert prof.min_norm_sq == 1
        assert prof.norms_sq[0] == Fraction(scale) ** 2


def test_gram_schmidt_dependent_rows():
    with pytest.raises(DependentRowsError):
        gram_schmidt([(1, 2), (2, 4)])


def test_gram_schmidt_product_equals_det_squared():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d = determinant(rows)
        if d == 0:
            continue
        prof = gram_schmidt(rows)
        prod = Fraction(1)
        for q in prof.norms_sq:
            prod *= q
        assert prod == d * d


def test_determinant_examples():
    assert determinant(build_basis([2, 3], 1000)) == 1000
    assert determinant([(1, 0), (0, 1)]) == 1
    assert determinant(build_basis([2], 10)) == 10
    assert determinant([(2, 0), (4, 0)]) == 0


def test_determinant_matches_cofactor_on_randoms():
    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert determinant(rows) == abs(cofactor_det(rows))
        if determinant(rows):
            assert gram_schmidt(rows).gram_det == determinant(rows) ** 2


def test_enumerate_shortest_identity():
    sv = enumerate_shortest([(1, 0), (0, 1)])
    assert sv.norm_sq == 1
    assert sorted(abs(c) for c in sv.vector) == [0, 1]


def test_enumerate_shortest_against_exhaustive():
    # shortest vector of the k=1 lattice at scale 10, checked by brute force
    basis = build_basis([2], 10)
    sv = enumerate_shortest(basis)
    best = None
    for a in range(-50, 51):
        for b in range(-50, 51):
            if a == b == 0:
                continue
            vec = (a * 14 + b * 10, a)
            norm = vec[0] ** 2 + vec[1] ** 2
            if best is None or norm < best:
                best = norm
    assert sv.norm_sq == best


def test_enumerate_shortest_minkowski_bound():
    # lambda^2 <= (k+1) * det^(2/(k+1)) for these lattices
    for k, scale in [(2, 100), (3, 50), (4, 30)]:
        basis = build_basis(squarefree_upto(k), scale)
        sv = enumerate_shortest(basis)
        dim = k + 1
        assert float(sv.norm_sq) <= dim * float(scale) ** (2 / dim) + 1e-9


def test_enumerate_shortest_dimension_cap():
    rows = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    with pytest.raises(ValueError):
        enumerate_shortest(rows)


def test_enumerate_shortest_vector_consistent_with_coefficients():
    basis = build_basis([2, 3], 7)
    sv = enumerate_shortest(basis)
    rebuilt = [0] * 3
    for c, row in zip(sv.coefficients, basis.rows):
        for i, e in enumerate(row):
            rebuilt[i] += c * e
    assert tuple(rebuilt) == sv.vector
    assert sum(x * x for x in sv.vector) == sv.norm_sq


def test_fraction_gso_shapes():
    mu, norms = fraction_gso([(2, 0), (1, 2)])
    assert norms == [Fraction(4), Fraction(4)]
    assert mu[1][0] == Fraction(1, 2)


def _box_search(rows, start, end):
    """The canonical coefficient vectors of least projected norm in the
    window [start, end), and that norm, by exhaustive search of a box that
    holds every vector no longer than the window's first row.

    |x_i|^2 <= R * (G^-1)_ii for the projected window Gram matrix G, and
    1 / (G^-1)_ii is the last Gram-Schmidt norm once row i is put after the
    prefix and the other window rows.
    """
    mu, norms = fraction_gso(rows)
    radius = norms[start]
    box = []
    for i in range(start, end):
        others = rows[:start] + [rows[j] for j in range(start, end) if j != i]
        last = fraction_gso(others + [rows[i]])[1][-1]
        box.append(math.isqrt(math.floor(radius / last)))
    found = []
    for x in itertools.product(*(range(-b, b + 1) for b in box)):
        if not any(x) or next(c for c in x if c) < 0:
            continue
        norm = Fraction(0)
        for t in range(start, end):
            y = x[t - start] + sum(x[j - start] * mu[j][t] for j in range(t + 1, end))
            norm += y * y * norms[t]
        found.append((norm, x))
    best = min(norm for norm, _ in found)
    return [x for norm, x in found if norm == best], best


def _signed_projection(rows, start, coeffs):
    """d[start] * pi_start(v) for v = sum(coeffs[j] * rows[start + j]), with
    its first nonzero entry made positive, from Gram-Schmidt over Fraction:
    d[start] is the product of the first start squared norms, and pi_start
    removes v's components along the first start Gram-Schmidt vectors."""
    mu, norms = fraction_gso(rows)
    stars = []
    for i, row in enumerate(rows[:start]):
        stars.append([a - sum(mu[i][j] * s[c] for j, s in enumerate(stars)) for c, a in enumerate(row)])
    v = [sum(c * rows[start + j][col] for j, c in enumerate(coeffs)) for col in range(len(rows[0]))]
    for s, norm in zip(stars, norms):
        f = sum(a * b for a, b in zip(v, s)) / norm
        v = [a - f * b for a, b in zip(v, s)]
    scaled = tuple(math.prod(norms[:start]) * a for a in v)
    return scaled if next(a for a in scaled if a) > 0 else tuple(-a for a in scaled)


def test_enumerate_block_matches_box_search():
    rng = random.Random(31)
    bases = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
        [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)],
    ]
    for _ in range(30):
        n = rng.randint(2, 6)
        rows = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n)]
        if determinant(rows):
            bases.append(list(lll(rows).rows))
    ties = 0
    for rows in bases:
        d, lam = integral_gso(rows)
        for start in range(len(rows)):
            for end in range(start + 1, len(rows) + 1):
                minima, norm = _box_search(rows, start, end)
                ties += len(minima) > 1
                q = norm * d[start]
                assert q.denominator == 1
                # of equally short vectors, the one whose signed projection is smallest
                pick = min(minima, key=lambda x: _signed_projection(rows, start, x))
                assert enumerate_block(rows, d, lam, start, end) == (pick, q)
    assert ties >= 10
    # the tie-break: among e_0, e_1, e_2 the smallest vector wins, in
    # whichever order the rows list them
    for rows, pick in [(bases[0], (0, 0, 1)), (bases[0][::-1], (1, 0, 0))]:
        d, lam = integral_gso(rows)
        assert enumerate_block(rows, d, lam, 0, 3) == (pick, 1)


def _rebased_window(rng, rows, start, end):
    """rows with the window [start, end) replaced by a random unimodular
    combination of itself: row operations, sign flips and a shuffle."""
    window = [list(r) for r in rows[start:end]]
    for _ in range(12):
        if len(window) > 1:
            i, j = rng.sample(range(len(window)), 2)
            q = rng.choice((-1, 1))
            window[i] = [a + q * b for a, b in zip(window[i], window[j])]
        i = rng.randrange(len(window))
        window[i] = [-a for a in window[i]]
    rng.shuffle(window)
    return list(rows[:start]) + [tuple(r) for r in window] + list(rows[end:])


def test_enumerate_block_pick_does_not_depend_on_the_window_basis():
    # The window's lattice, not the rows that span it, decides between equally
    # short vectors: a unimodular re-basis of the window, with the rows before
    # it unchanged, gives the same length and the same signed projection.
    rng = random.Random(32)
    bases = [
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)],
        [(3, 1, 0, 0), (1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, 1)],
    ]
    for _ in range(12):
        n = rng.randint(3, 5)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        if determinant(rows):
            bases.append(list(lll(rows).rows))
    ties = 0
    for rows in bases:
        n = len(rows)
        for start in range(n - 1):
            for end in range(start + 2, n + 1):
                d, lam = integral_gso(rows)
                coeffs, q = enumerate_block(rows, d, lam, start, end)
                minima, _ = _box_search(rows, start, end)
                ties += len(minima) > 1
                want = _signed_projection(rows, start, coeffs)
                for _ in range(4):
                    moved = _rebased_window(rng, rows, start, end)
                    d2, lam2 = integral_gso(moved)
                    coeffs2, q2 = enumerate_block(moved, d2, lam2, start, end)
                    assert q2 == q and _signed_projection(moved, start, coeffs2) == want
    assert ties >= 10


def test_enumerate_shortest_does_not_depend_on_the_basis():
    # The vector returned is the lattice's smallest shortest vector after
    # canonical_sign, whatever the order and signs of the rows.
    rng = random.Random(33)
    assert enumerate_shortest([(0, 0, 1), (0, 1, 0), (1, 0, 0)]).vector == (0, 0, 1)
    bases = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)],
        [(2, 1, 0), (1, -1, 1), (0, 1, 2)],
    ]
    for rows in bases:
        want = enumerate_shortest(rows)
        assert next(a for a in want.vector if a) > 0
        for _ in range(10):
            moved = [tuple(sign * a for a in r) for r, sign in zip(rows, rng.choices((-1, 1), k=len(rows)))]
            rng.shuffle(moved)
            got = enumerate_shortest(moved)
            assert (got.vector, got.norm_sq) == (want.vector, want.norm_sq)


def test_projected_rows_match_rational_projections():
    # d[s] * pi_s(b_r), s = min(r, start), against Gram-Schmidt over Fraction
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        rows = [tuple(rng.randint(-50, 50) for _ in range(n + 1)) for _ in range(n)]
        if gram_schmidt(rows).gram_det == 0:
            continue
        stars = []
        for r in rows:
            v = [Fraction(a) for a in r]
            for s in stars:
                c = sum(a * b for a, b in zip(v, s)) / sum(b * b for b in s)
                v = [a - c * b for a, b in zip(v, s)]
            stars.append(v)
        d, lam = integral_gso(rows)
        for start in range(n + 1):
            for r, got in enumerate(projected_rows(rows, d, lam, start)):
                s = min(r, start)
                v = [Fraction(a) for a in rows[r]]
                for star in stars[:s]:
                    c = sum(a * b for a, b in zip(v, star)) / sum(b * b for b in star)
                    v = [a - c * b for a, b in zip(v, star)]
                assert got == [d[s] * a for a in v]


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: scaled_nearest_sqrt(0, 1), (ValueError, "radicand must be >= 1, got 0")),
        (lambda: scaled_nearest_sqrt(2, 0), (ValueError, "scale must be >= 1, got 0")),
        (lambda: Enclosure(Fraction(0), Fraction(0), 0), (ValueError, "precision_bits must be >= 1, got 0")),
        (lambda: repr(Enclosure(Fraction(1, 3), Fraction(1, 2), 64)), "Enclosure(0.333333, 0.5, bits=64)"),
        (lambda: str(RadicalSum(())), "0"),
        (lambda: str(RadicalSum((), 5)), "-5"),
        (lambda: squarefree_upto(0), (ValueError, "count must be >= 1, got 0")),
        (lambda: prime_count(-1), (ValueError, "expected a nonnegative integer, got -1")),
        (lambda: determinant([(1, 2)]), (ValueError, "determinant needs a square matrix")),
        (lambda: determinant([(0, 1), (0, 2)]), 0),  # no pivot in the first column
        (lambda: fraction_gso([(1, 2), (2, 4)]), (DependentRowsError, "row 1 is dependent on earlier rows")),
    ],
    ids=[
        "sqrt_radicand", "sqrt_scale", "enclosure_bits", "enclosure_repr", "zero_sum_str",
        "offset_only_str", "squarefree_count", "prime_count", "det_shape", "det_singular", "gso_dependent",
    ],
)
def test_rarely_reached_checks_pin_their_results(call, expected):
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
    else:
        assert call() == expected
