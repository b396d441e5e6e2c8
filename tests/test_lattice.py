import itertools
import math
import random
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
)
from sqrtgap.reduction import bkz, lll
from sqrtgap.squarefree import squarefree_upto


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


def test_enumerate_shortest_respects_radius():
    with pytest.raises(ValueError):
        enumerate_shortest([(5, 0), (0, 5)], radius_sq=Fraction(1))


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
    """The sorted canonical coefficient vectors of least projected norm in the
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
    return sorted(x for norm, x in found if norm == best), best


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
                assert enumerate_block(d, lam, start, end, d[start + 1]) == (minima[0], q)
                assert enumerate_block(d, lam, start, end, int(q) - 1) is None
    assert ties >= 10
    # the tie-break: among e_0, e_1, e_2 the smallest coefficient vector wins
    d, lam = integral_gso(bases[0])
    assert enumerate_block(d, lam, 0, 3, 1) == ((0, 0, 1), 1)
