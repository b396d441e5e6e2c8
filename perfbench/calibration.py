"""Calibration: a fixed kernel whose time tracks the host's current speed.

The kernel does the kinds of arithmetic the library spends its time on: an
all-integer LLL on a fixed knapsack basis (reduction) and dyadic enclosures
of signed radical sums (exactnum, oracle).  It lives in the benchmark, so no
library change moves it.  The benchmark runs it between measured calls and
scales each call's time by CAL_REF_S over the kernel's median time around
that call.  On the shared 2-CPU host the baseline was taken on, the speed
of the CPU drifted by up to 1.8x within minutes; the kernel slows with it,
so scaled times stay comparable between runs and between commits.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import time
from fractions import Fraction

_CAL_DIM, _CAL_BITS = 9, 140
_CAL_RNG = random.Random(7)
_CAL_WEIGHTS = [_CAL_RNG.getrandbits(_CAL_BITS) for _ in range(_CAL_DIM)]
# A fixed unit: scaled seconds are seconds on a host where the kernel takes
# CAL_REF_S (it took 0.011 s to 0.019 s on the host the baseline was taken on).
CAL_REF_S = 0.014
CAL_SHARE = 0.2  # calibration after an attempt, as a share of the attempt's time
CAL_FIRST_S = 0.25
CAL_WINDOW_S = 2.0  # an attempt is scaled by the kernel samples this close to it


def _cal_lll() -> list[list[int]]:
    """Integral LLL (delta = 3/4) of rows (e_i, w_i); d and lam stay integers."""
    n = _CAL_DIM
    rows = [[int(i == j) for j in range(n)] + [w] for i, w in enumerate(_CAL_WEIGHTS)]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(a * b for a, b in zip(rows[i], rows[j]))
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u

    def size_reduce(k, j):
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
            for t in range(j):
                lam[k][t] -= q * lam[j][t]
            lam[k][j] -= q * d[j + 1]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        if 4 * (d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2) < 3 * d[k] * d[k]:
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            m = lam[k][k - 1]
            d_new = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (d_new * t + m * lam[i][k]) // d[k + 1]
            d[k] = d_new
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    return rows


def _cal_radicals() -> Fraction:
    """Smallest enclosure of |sum +-sqrt(r) - t| over small signed multisets,
    with square-free folding and 64-bit dyadic square-root brackets."""
    best = None
    unit = Fraction(1, 1 << 64)
    alphabet = [(sign, r) for sign in (1, -1) for r in range(1, 5)]
    for combo in itertools.combinations_with_replacement(alphabet, 3):
        merged: dict[int, int] = {}
        rational = 0
        for sign, r in combo:
            a, f = 1, r
            while f % 4 == 0:
                f, a = f // 4, 2 * a
            if f == 1:
                rational += sign * a
            else:
                merged[f] = merged.get(f, 0) + sign * a
        lo = hi = Fraction(rational)
        for f, c in sorted(merged.items()):
            m = math.isqrt(f << 128)
            if c > 0:
                lo, hi = lo + c * m * unit, hi + c * (m + 1) * unit
            elif c < 0:
                lo, hi = lo + c * (m + 1) * unit, hi + c * m * unit
        for t in range(math.floor(lo) - 1, math.ceil(hi) + 2):
            width = max(abs(lo - t), abs(hi - t))
            if width and (best is None or width < best):
                best = width
    return best


def calibration_kernel() -> None:
    _cal_lll()
    _cal_radicals()


class Calibration:
    """Kernel samples (end time, duration) taken between measured calls."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def run(self, min_seconds: float) -> None:
        """Run the kernel at least once and for at least min_seconds."""
        end = time.perf_counter() + min_seconds
        while True:
            t0 = time.perf_counter()
            calibration_kernel()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))
            if t1 >= end:
                return

    def around(self, start: float, end: float) -> float:
        """Median kernel time over the samples within CAL_WINDOW_S of [start, end]."""
        near = [d for t, d in self.samples if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
        return statistics.median(near or [d for _, d in self.samples])
