"""Dimension sweep behind reduction.HKZ_MAX_DIM: what a window spanning the
basis costs and changes, dimension by dimension.

For each dimension n = k + 1 in 11..20 it runs upper_bound_from_reduction(k, N)
on 42 scales: the 32 scales N = 10^(5n) * (10^9 + r) // 10^9, r the
benchmark's pool offsets (so n = 16 gives the witness task's inputs at
10^80), and the grid N = 10^10, 10^20, ..., 10^100, where small N gives
short vectors and so ties between equally short ones.  Each runs under two
window rules, by setting reduction.HKZ_MAX_DIM for the call:

  * "bkz10": HKZ_MAX_DIM = 10, so the window is DEFAULT_BLOCK_SIZE = 10 and
    the LLL starts cold at 99/100 (the reduction of every dimension above 10
    before HKZ_MAX_DIM existed);
  * "hkz": HKZ_MAX_DIM = 20, so the window spans the basis, the LLL runs
    the PRECONDITION_DELTAS ladder first, ties go to the tie rule and the
    rows are normalized.

Per input it records both times (median of --repeats alternating calls in
one process, sieve warm), the swaps, whether the bkz10 basis is already
HKZ-reduced (windows_are_shortest over the whole basis, the tests' check,
imported from tests/reference.py), and whether the hkz witness |value| is
equal to, stronger or weaker than the bkz10 one.  A dimension may take the
spanning window when no witness there gets weaker and its median time over
the pool scales does not grow.

Run from the repository root (perfbench/ supplies the pool offsets, tests/
the check):

    PYTHONPATH=src:. python scripts/hkz_sweep.py [--repeats 3] [--out BENCH_hkz_sweep.json]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import time

from perfbench.workloads import POOL_OFFSETS
from sqrtgap import bounds, reduction
from sqrtgap.exactnum import compare_abs
from sqrtgap.lattice import build_basis
from sqrtgap.squarefree import squarefree_upto
from tests.reference import windows_are_shortest

DIMS = range(11, 21)
GRID_LOG10_N = range(10, 101, 10)
RULES = {"bkz10": 10, "hkz": 20}


def under(rule: str, call):
    """call() with reduction.HKZ_MAX_DIM set as the rule says."""
    saved = reduction.HKZ_MAX_DIM
    reduction.HKZ_MAX_DIM = RULES[rule]
    try:
        return call()
    finally:
        reduction.HKZ_MAX_DIM = saved


def timed_witness(rule: str, k: int, scale: int):
    """(seconds, witness) of one upper_bound_from_reduction under a rule."""
    t0 = time.perf_counter()
    witness = under(rule, lambda: bounds.upper_bound_from_reduction(k, scale))
    return time.perf_counter() - t0, witness


def log10_hi(witness) -> float:
    hi = witness.bound.hi
    return math.log10(hi.numerator) - math.log10(hi.denominator)


def scales(n: int) -> list[tuple[str, int, int]]:
    """(set, log10 N, N) of the pool scales and the grid at dimension n."""
    pool = [("pool", 5 * n, 10 ** (5 * n) * (10**9 + r) // 10**9) for r in POOL_OFFSETS]
    return pool + [("grid", e, 10**e) for e in GRID_LOG10_N]


def sweep(repeats: int) -> dict:
    cells, by_dim = [], {}
    for n in DIMS:
        k = n - 1
        for which, e, scale in scales(n):
            times, witnesses = {rule: [] for rule in RULES}, {}
            for i in range(repeats):
                for rule in RULES if i % 2 == 0 else reversed(RULES):
                    seconds, witnesses[rule] = timed_witness(rule, k, scale)
                    times[rule].append(seconds)
            basis = build_basis(squarefree_upto(k), scale)
            reduced = {rule: under(rule, lambda: reduction.bkz(basis)) for rule in RULES}
            old, new = witnesses["bkz10"], witnesses["hkz"]
            order = compare_abs(new.value, old.value)
            cells.append({
                "dim": n, "k": k, "set": which, "log10_N": e, "N": str(scale),
                "bkz10_s": statistics.median(times["bkz10"]),
                "hkz_s": statistics.median(times["hkz"]),
                "bkz10_swaps": reduced["bkz10"].swaps, "hkz_swaps": reduced["hkz"].swaps,
                "bkz10_basis_is_hkz": windows_are_shortest(reduced["bkz10"].rows, n),
                "witness": "same" if order == 0 else "stronger" if order < 0 else "weaker",
                "bkz10_log10_hi": log10_hi(old), "hkz_log10_hi": log10_hi(new),
            })
        rows = [c for c in cells if c["dim"] == n]
        pool = [c for c in rows if c["set"] == "pool"]
        by_dim[n] = {
            "inputs": len(rows),
            "pool_bkz10_median_s": round(statistics.median(c["bkz10_s"] for c in pool), 4),
            "pool_hkz_median_s": round(statistics.median(c["hkz_s"] for c in pool), 4),
            "bkz10_basis_not_hkz": sum(not c["bkz10_basis_is_hkz"] for c in rows),
            "witnesses_stronger": sum(c["witness"] == "stronger" for c in rows),
            "witnesses_weaker": sum(c["witness"] == "weaker" for c in rows),
            "weaker_on_grid": [c["log10_N"] for c in rows if c["set"] == "grid" and c["witness"] == "weaker"],
        }
        print(n, json.dumps(by_dim[n]), flush=True)
    return {"by_dim": by_dim, "cells": cells}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_hkz_sweep.json")
    args = parser.parse_args()
    result = sweep(args.repeats)
    report = {
        "what": "upper_bound_from_reduction(n - 1, N) for N = 10^(5n) * (10^9 + r) // 10^9 over the 32 pool "
                "offsets r and N = 10^10..10^100, with BKZ-10 from a cold 99/100 LLL against a window "
                "spanning the basis after the LLL pre-pass ladder, n = 11..20",
        "command": f"PYTHONPATH=src:. python scripts/hkz_sweep.py --repeats {args.repeats}",
        "machine": f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}",
        **result,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
