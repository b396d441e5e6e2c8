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
rational approximations b to sum a_i sqrt(s_i).  Everything here is exact.
LatticeBasis.vector lifts integer coordinates to a vector at any scale, and
LatticeBasis.coordinates inverts it.  Every Gram-Schmidt profile, with the
Gram determinant d[n], comes from integral_gso's all-integer data;
fraction_gso and the Bareiss determinant are only the tests' references.
The shortest-vector search is a complete Schnorr-Euchner enumeration,
all-integer on the integral Gram-Schmidt data, with no Fraction and no float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .squarefree import is_squarefree

Row = tuple[int, ...]

ENUMERATION_MAX_DIM = 6
# Largest basis build_basis will allocate: it admits the k = 100 target
# (dimension 101) with room, and is checked before any row exists.
BASIS_MAX_DIM = 256
# Largest dim * scale.bit_length() build_basis will take, checked before the
# first square root: it bounds their time as BASIS_MAX_DIM bounds memory.  The
# worst admitted case, one square root of a 2^20-bit radicand, takes about
# 0.5 s on a 2-CPU Xeon; the k = 100 target at N = 10^320 measures about 107k.
BASIS_MAX_BITS = 1 << 20


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

    def coordinates(self, row: Sequence[int]) -> Row:
        """Integer coefficients (c0, c1, ..., ck) with row = sum(c_i * rows[i]).

        The tail of a vector of this lattice is (c1, ..., ck) itself, so the
        first entry fixes c0 = (row[0] - sum(c_i * [N*sqrt(s_i)])) / N.  Stacked
        for every row of another basis, the coordinates are its transform.
        Raises ValueError when row is not a vector of this lattice.
        """
        if len(row) == self.dim:
            tail = tuple(row[1:])
            c0, rem = divmod(row[0] - self.vector((0,) + tail)[0], self.scale)
            if not rem:
                return (c0,) + tail
        raise ValueError("row is not a vector of this lattice")

    def vector(self, coords: Sequence[int]) -> Row:
        """The lattice vector sum(c_i * rows[i]), the inverse of coordinates:
        (c0*N + sum(c_i * [N*sqrt(s_i)]), c1, ..., ck) at this basis's N."""
        if len(coords) != self.dim:
            raise ValueError(f"need {self.dim} coordinates, got {len(coords)}")
        tail = tuple(coords[1:])
        first = coords[0] * self.scale + sum(c * r[0] for c, r in zip(tail, self.rows[1:]))
        return (first,) + tail


def round_half_up(num: int, den: int) -> int:
    """Integer nearest num/den for den > 0, halves rounded up: floor(num/den + 1/2)."""
    return (2 * num + den) // (2 * den)


def scaled_nearest_sqrt(radicand: int, scale: int) -> int:
    """Integer nearest scale*sqrt(radicand), computed without floating point.

    Rounds halves up, matching floor(x + 1/2).  With t = isqrt(4*scale^2*s),
    the answer is (t+1)//2 in every case: t is the floor of twice the target,
    and the parity of t settles which integer is nearest.
    """
    if radicand < 1:
        raise ValueError(f"radicand must be >= 1, got {radicand}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    t = math.isqrt(4 * scale * scale * radicand)
    return (t + 1) // 2


def check_basis_size(k: int, scale: int) -> None:
    """Raise ValueError unless build_basis admits k radicands at this scale."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= BASIS_MAX_DIM:
        raise ValueError(f"{k + 1} rows exceed BASIS_MAX_DIM = {BASIS_MAX_DIM}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    size = (k + 1) * scale.bit_length()
    if size > BASIS_MAX_BITS:
        raise ValueError(f"dim * scale bits = {size} exceeds BASIS_MAX_BITS = {BASIS_MAX_BITS}")


def build_basis(radicands: Sequence[int], scale: int) -> LatticeBasis:
    """Construct the lattice basis for the given radicands and scale."""
    check_basis_size(len(radicands), scale)
    seen = set()
    for s in radicands:
        if s < 2:
            raise ValueError(f"radicands must be >= 2, got {s}")
        if not is_squarefree(s):
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
    """Exact Gram-Schmidt data over Fraction, (mu, norms_sq): the tests'
    rational reference for integral_gso and a perfbench tracer binding.

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


def integral_gso(rows: Sequence[Row]) -> tuple[list[int], list[list[int]]]:
    """All-integer Gram-Schmidt data (d, lam) of integer rows.

    d[i] is the determinant of the Gram matrix of the first i rows (d[0] = 1)
    and lam[i][j] = d[j+1] * mu[i][j] for j < i; both are integers, and
    ||v*_i||^2 = d[i+1] / d[i].  Raises DependentRowsError if any v*_i
    vanishes.
    """
    n = len(rows)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    update_integral_gso(rows, d, lam, 0, n)
    return d, lam


def update_integral_gso(
    rows: Sequence[Sequence[int]], d: list[int], lam: list[list[int]], lo: int, hi: int
) -> None:
    """Bring integral_gso data up to date, in place, after rows [lo, hi) were
    replaced by a unimodular combination of themselves.

    Only what the replacement changes is recomputed: every entry of rows
    [lo, hi), d[lo+1 .. hi-1] with them, and columns [lo, hi) of the later
    rows.  Columns before lo depend only on the unchanged prefix, and columns
    from hi on only on spans the replacement keeps.
    """
    for r in range(lo, len(rows)):
        row, lam_r = rows[r], lam[r]
        for j in range(r + 1) if r < hi else range(lo, hi):
            lam_j = lam[j]
            u = _dot(row, rows[j])
            for t in range(j):
                u = (d[t + 1] * u - lam_r[t] * lam_j[t]) // d[t]
            if j < r:
                lam_r[j] = u
            elif u > 0:
                d[r + 1] = u
            else:
                raise DependentRowsError(f"row {r} is dependent on earlier rows")


def projected_rows(
    rows: Sequence[Sequence[int]], d: Sequence[int], lam: Sequence[Sequence[int]], start: int
) -> list[list[int]]:
    """The rows projected orthogonally to the rows before start, scaled to
    integer vectors: entry r is d[s] * pi_s(rows[r]) with s = min(r, start),
    so the rows before start give their scaled Gram-Schmidt vectors d[r] * v*_r.

    d and lam are integral_gso's data.  Fraction-free, one row of
    projections at a time: d[j+1] * pi_{j+1}(b) = (d[j+1] * w - lam_b[j] * w_j) / d[j]
    for w = d[j] * pi_j(b) and w_j = d[j] * v*_j, an exact division.
    """
    w = [list(r) for r in rows]
    for j in range(start):
        wj, dj, dj1 = w[j], d[j], d[j + 1]
        for r in range(j + 1, len(w)):
            c = lam[r][j]
            w[r] = [(dj1 * a - c * b) // dj for a, b in zip(w[r], wj)]
    return w


@dataclass(frozen=True)
class GramSchmidtProfile:
    norms_sq: tuple[Fraction, ...]
    min_norm_sq: Fraction
    gram_det: int  # d[n], the Gram determinant: det(rows)^2 for a square basis

    @classmethod
    def from_d(cls, d: Sequence[int]) -> "GramSchmidtProfile":
        """The profile of integral_gso data: ||v*_i||^2 = d[i+1] / d[i]."""
        norms = tuple(Fraction(d[i + 1], d[i]) for i in range(len(d) - 1))
        return cls(norms, min(norms), d[-1])


def gram_schmidt(basis: "LatticeBasis | Iterable[Sequence[int]]") -> GramSchmidtProfile:
    """Exact Gram-Schmidt profile (all squared norms and their minimum)."""
    return GramSchmidtProfile.from_d(integral_gso(as_rows(basis))[0])


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


def canonical_sign(v: tuple[int, ...]) -> tuple[int, ...]:
    """Whichever of v and -v has its first nonzero entry positive."""
    for c in v:
        if c > 0:
            return v
        if c < 0:
            return tuple(-x for x in v)
    return v


def enumerate_block(
    rows: Sequence[Sequence[int]],
    d: Sequence[int],
    lam: Sequence[Sequence[int]],
    start: int,
    end: int,
) -> tuple[tuple[int, ...], int]:
    """Shortest nonzero combination of rows [start, end) in the lattice
    projected orthogonally to rows before start.

    d and lam are the integral Gram-Schmidt data of integral_gso for rows.
    Lengths are carried as q = d[start] * ||pi_start(v)||^2, an integer for
    every lattice vector v.  The search radius is the window's first row,
    q = d[start+1], so a vector is always found.  Returns the canonical
    coefficient vector (first nonzero coefficient positive) and its q.
    Among equal-length candidates the one returned has the smallest
    projection d[start] * pi_start(v), signed by canonical_sign: a function
    of the projected lattice, not of the rows that span it.  The projections
    are computed at the window's first tie.

    Schnorr-Euchner zig-zag enumeration, iterative and all-integer: at
    absolute level a the partial length Q = d[a] * ||pi_a(v)||^2 is again an
    integer, Q = (d[a] * Q_above + g^2) / d[a+1] exactly, with
    g = x * d[a+1] - C and C = -sum of x_j * lam[j][a] over the levels above.
    A level is cut once Q * d[start] > best_q * d[a], and every vector whose
    length ties the best is still visited, so the result depends only on
    the window, not on the visiting order.
    """
    m = end - start
    dd = d[start : end + 1]
    cols = [[lam[start + j][start + t] for j in range(m)] for t in range(m)]
    x = [0] * m
    center = [0] * m
    step = [0] * m  # next zig-zag move at each level
    q_above = [0] * (m + 1)  # q_above[t]: Q of levels t and above
    best: Optional[tuple[int, ...]] = None
    best_q = dd[1]
    projections: list[tuple[int, ...]] = []  # columns of the window rows' projections

    def key(coeffs: tuple[int, ...]) -> tuple[int, ...]:
        if not projections:
            projections.extend(zip(*projected_rows(rows[:end], d, lam, start)[start:]))
        return canonical_sign(tuple(sum(c * p for c, p in zip(coeffs, col)) for col in projections))

    # limit[t]: the largest Q at level t that can still lead to best_q or less
    limit = [best_q * di // dd[0] for di in dd[:m]]
    t = m - 1
    while True:
        den = dd[t + 1]
        g = x[t] * den - center[t]
        q = (dd[t] * q_above[t + 1] + g * g) // den
        if q <= limit[t]:
            if t:
                q_above[t] = q
                t -= 1
                col = cols[t]
                c = -sum(x[j] * col[j] for j in range(t + 1, m) if x[j])
                den = dd[t + 1]
                base = round_half_up(c, den)
                center[t], x[t] = c, base
                step[t] = 1 if c >= base * den else -1
                continue
            if q:
                cand = canonical_sign(tuple(x))
                if q < best_q or best is None:
                    best_q, best = q, cand
                    limit = [best_q * di // dd[0] for di in dd[:m]]
                elif key(cand) < key(best):
                    best = cand
        else:
            t += 1
            if t == m:
                break
        # Next value at level t, in order of nondecreasing distance from the
        # center; while every level above is zero, only x >= 0 (v and -v).
        if q_above[t + 1]:
            x[t] += step[t]
            step[t] = -step[t] - (1 if step[t] > 0 else -1)
        else:
            x[t] += 1
    return best, best_q


def enumerate_shortest(basis: "LatticeBasis | Iterable[Sequence[int]]") -> ShortestVector:
    """Exact shortest nonzero lattice vector by complete enumeration.

    Oracle-scale only: dimensions up to 6.  The search radius is the first
    row's squared norm.  Of several shortest vectors the one returned is the
    smallest after canonical_sign, and it is returned signed so: a function
    of the lattice alone, not of its basis.
    """
    rows = as_rows(basis)
    n = len(rows)
    if n > ENUMERATION_MAX_DIM:
        raise ValueError(f"enumeration supports dimension <= {ENUMERATION_MAX_DIM}, got {n}")
    d, lam = integral_gso(rows)
    # d[0] = 1, so q is the squared norm itself
    coeffs, norm = enumerate_block(rows, d, lam, 0, n)
    vec = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0])))
    if canonical_sign(vec) != vec:
        vec, coeffs = canonical_sign(vec), tuple(-c for c in coeffs)
    return ShortestVector(vec, Fraction(norm), coeffs)
