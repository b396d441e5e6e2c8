"""The scaled square-root lattice and exact linear algebra on integer rows.

For square-free radicands s_1 < ... < s_k and a scaling integer N, the
lattice is spanned by the k+1 rows

    (N, 0, 0, ..., 0)
    ([N*sqrt(s_1)], 1, 0, ..., 0)
    ([N*sqrt(s_2)], 0, 1, ..., 0)
    ...
    ([N*sqrt(s_k)], 0, 0, ..., 1)

where [x] is the nearest integer.  A generic vector is
(sum a_i [N*sqrt(s_i)] - b*N, a_1, ..., a_k), so short vectors encode good
rational approximations b to sum a_i sqrt(s_i).  Everything here is exact:
Gram-Schmidt runs over Fraction, the determinant uses Bareiss elimination,
and the shortest-vector search is a complete depth-first enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactnum import round_half_up, scaled_nearest_sqrt
from .squarefree import squarefree_decompose

Row = tuple[int, ...]

ENUMERATION_MAX_DIM = 6
# Largest basis build_basis will allocate: it admits the k = 100 target
# (dimension 101) with room, and is checked before any row exists.
BASIS_MAX_DIM = 256


class DependentRowsError(ValueError):
    """The supplied rows are linearly dependent."""


@dataclass(frozen=True)
class LatticeBasis:
    rows: tuple[Row, ...]
    radicands: tuple[int, ...]
    scale: int

    @property
    def k(self) -> int:
        return len(self.radicands)

    @property
    def dim(self) -> int:
        return len(self.rows)


def build_basis(radicands: Sequence[int], scale: int) -> LatticeBasis:
    """Construct the lattice basis for the given radicands and scale."""
    if not radicands:
        raise ValueError("need at least one radicand")
    if len(radicands) >= BASIS_MAX_DIM:
        raise ValueError(f"{len(radicands) + 1} rows exceed BASIS_MAX_DIM = {BASIS_MAX_DIM}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    seen = set()
    for s in radicands:
        if s < 2:
            raise ValueError(f"radicands must be >= 2, got {s}")
        if squarefree_decompose(s)[0] != 1:
            raise ValueError(f"radicand {s} is not square-free")
        if s in seen:
            raise ValueError(f"duplicate radicand {s}")
        seen.add(s)
    k = len(radicands)
    rows = [(scale,) + (0,) * k]
    for i, s in enumerate(radicands):
        tail = [0] * k
        tail[i] = 1
        rows.append((scaled_nearest_sqrt(s, scale),) + tuple(tail))
    return LatticeBasis(tuple(rows), tuple(radicands), scale)


def as_rows(basis: "LatticeBasis | Iterable[Sequence[int]]") -> list[Row]:
    """The rows of a basis, or of any iterable of integer rows, as tuples."""
    if isinstance(basis, LatticeBasis):
        return [tuple(r) for r in basis.rows]
    return [tuple(r) for r in basis]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def fraction_gso(rows: Sequence[Row]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact Gram-Schmidt data: (mu, norms_sq).

    mu is lower triangular with mu[i][j] = <v_i, v*_j> / ||v*_j||^2 for j < i,
    and norms_sq[i] = ||v*_i||^2.  Raises DependentRowsError if any v*_i
    vanishes.  Works on the Gram matrix, so row entries can be huge without
    materializing the orthogonalized vectors.
    """
    n = len(rows)
    gram = [[Fraction(_dot(rows[i], rows[j])) for j in range(i + 1)] for i in range(n)]
    mu: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    norms: list[Fraction] = [Fraction(0)] * n
    # r[i][j] = <v_i, v*_j>; diagonal entries are the squared norms.
    r: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = gram[i][j]
            for t in range(j):
                acc -= mu[j][t] * r[i][t]
            r[i][j] = acc
            if j < i:
                if norms[j] == 0:
                    raise DependentRowsError(f"row {j} is dependent on earlier rows")
                mu[i][j] = acc / norms[j]
            else:
                norms[i] = acc
        if norms[i] <= 0:
            raise DependentRowsError(f"row {i} is dependent on earlier rows")
    return mu, norms


@dataclass(frozen=True)
class GramSchmidtProfile:
    norms_sq: tuple[Fraction, ...]
    min_norm_sq: Fraction

    @property
    def dim(self) -> int:
        return len(self.norms_sq)


def gram_schmidt(basis: "LatticeBasis | Iterable[Sequence[int]]") -> GramSchmidtProfile:
    """Exact Gram-Schmidt profile (all squared norms and their minimum)."""
    rows = as_rows(basis)
    _, norms = fraction_gso(rows)
    return GramSchmidtProfile(tuple(norms), min(norms))


def determinant(basis: "LatticeBasis | Iterable[Sequence[int]]") -> int:
    """Absolute determinant of a square integer row matrix, by Bareiss."""
    rows = as_rows(basis)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    m = [list(r) for r in rows]
    prev = 1
    for p in range(n - 1):
        if m[p][p] == 0:
            for q in range(p + 1, n):
                if m[q][p] != 0:
                    m[p], m[q] = m[q], m[p]
                    break
            else:
                return 0
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                m[i][j] = (m[i][j] * m[p][p] - m[i][p] * m[p][j]) // prev
            m[i][p] = 0
        prev = m[p][p]
    return abs(m[n - 1][n - 1])


@dataclass(frozen=True)
class ShortestVector:
    vector: Row
    norm_sq: Fraction
    coefficients: tuple[int, ...]


def _canonical_coeffs(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    for c in coeffs:
        if c > 0:
            return coeffs
        if c < 0:
            return tuple(-x for x in coeffs)
    return coeffs


def enumerate_block(
    mu: list[list[Fraction]],
    norms_sq: list[Fraction],
    start: int,
    end: int,
    radius_sq: Fraction,
) -> Optional[tuple[tuple[int, ...], Fraction]]:
    """Shortest nonzero combination of rows [start, end) in the lattice
    projected orthogonally to rows before start.

    Complete depth-first enumeration over integer coefficients; returns the
    canonical coefficient vector (first nonzero coefficient positive,
    lexicographically smallest among equal-norm candidates) and its exact
    squared projected norm, or None if nothing lies within radius_sq.
    """
    m = end - start
    best: list = [None, radius_sq]  # coeffs, norm_sq

    coeffs = [0] * m

    def visit(level: int, x: int, total: Fraction) -> None:
        coeffs[level] = x
        if level == 0:
            if any(coeffs):
                cand = _canonical_coeffs(tuple(coeffs))
                if total < best[1] or (
                    total == best[1] and (best[0] is None or cand < best[0])
                ):
                    best[0] = cand
                    best[1] = total
        else:
            descend(level - 1, total)
        coeffs[level] = 0

    def descend(level: int, partial: Fraction) -> None:
        # partial is the squared norm contributed by the levels above.
        t = start + level
        norm = norms_sq[t]
        center = Fraction(0)
        for j in range(level + 1, m):
            if coeffs[j]:
                center -= mu[start + j][t] * coeffs[j]
        base = round_half_up(center)
        # Walk outward from the center in both directions; each direction
        # has monotonically growing contribution, so it can be cut off
        # independently once it crosses the (shrinking) radius.
        up: int | None = base
        down: int | None = base - 1
        while up is not None or down is not None:
            if up is not None:
                gap = up - center
                total = partial + gap * gap * norm
                if total <= best[1]:
                    visit(level, up, total)
                    up += 1
                else:
                    up = None
            if down is not None:
                gap = down - center
                total = partial + gap * gap * norm
                if total <= best[1]:
                    visit(level, down, total)
                    down -= 1
                else:
                    down = None

    descend(m - 1, Fraction(0))
    if best[0] is None:
        return None
    return best[0], best[1]


def enumerate_shortest(
    basis: "LatticeBasis | Iterable[Sequence[int]]",
    radius_sq: Fraction | int | None = None,
) -> ShortestVector:
    """Exact shortest nonzero lattice vector by complete enumeration.

    Oracle-scale only: dimensions up to 6.  The default search radius is the
    squared norm of the shortest input row, which always contains a lattice
    vector; an explicit smaller radius raises if nothing lies inside it.
    """
    rows = as_rows(basis)
    n = len(rows)
    if n > ENUMERATION_MAX_DIM:
        raise ValueError(f"enumeration supports dimension <= {ENUMERATION_MAX_DIM}, got {n}")
    mu, norms = fraction_gso(rows)
    min_row = min(Fraction(_dot(r, r)) for r in rows)
    radius = min_row if radius_sq is None else min(Fraction(radius_sq), min_row)
    found = enumerate_block(mu, norms, 0, n, radius)
    if found is None:
        raise ValueError(f"no nonzero vector within squared radius {radius_sq}")
    coeffs, norm = found
    vec = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for idx, entry in enumerate(row):
                vec[idx] += c * entry
    return ShortestVector(tuple(vec), norm, coeffs)
