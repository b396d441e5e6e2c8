import random
import tracemalloc
from fractions import Fraction

import pytest

from sqrtgap.lattice import (
    BASIS_MAX_DIM,
    DependentRowsError,
    build_basis,
    determinant,
    enumerate_shortest,
    fraction_gso,
    gram_schmidt,
)
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
