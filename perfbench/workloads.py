"""The benchmark's workloads: seeded task lists and the check on each output.

A task is one call into the library through a public entry point, with one
of a few seeded inputs (variants).  Its `run` looks the entry point up on
the module at call time, so the outside-in tracer sees the call when it has
patched that module.  Checks use the original functions captured at import,
so checking adds no spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from sqrtgap import bounds, cli, oracle
from sqrtgap.bounds import certification_threshold
from sqrtgap.exactnum import RadicalSum

# A seed multiplies each scale by (SCALE_DEN + r) / SCALE_DEN, a factor in
# [1, 1 + 10^-6): each seeded task draws VARIANTS offsets r from POOL_OFFSETS
# without replacement, and repeats cycle through them.  The work of one
# reduction varies by about 11% from one such factor to the next (measured
# on search.k10), so a run that times several variants varies less between
# seeds than one that times a single input.
SCALE_DEN = 10**9
VARIANTS = 8
POOL_OFFSETS = (
    41, 97, 142, 143, 223, 256, 265, 288, 310, 366, 394, 414, 430, 488, 497, 516,
    523, 597, 633, 773, 776, 802, 818, 849, 864, 911, 913, 929, 931, 940, 988, 991,
)

# The library's results at commit 4837105 on each pool offset, in pool order.
# A result weaker than its record fails the output check, so a change that
# trades the strength of the bound for speed cannot pass as a speed-up.
# SEARCH_STEPS[k][i]: find_lower_bound(k, step=10, start_scale=s) certified
# s * 10^j with j = SEARCH_STEPS[k][i], where s is the pool scale of 10^k.
SEARCH_STEPS = {
    10: (9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9,
         9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9),
    12: (12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
         12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 13, 12, 12, 12, 12, 12),
    14: (15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 16, 15, 15, 15, 15, 16,
         15, 15, 15, 15, 15, 15, 16, 15, 15, 15, 15, 15, 15, 16, 15, 15),
}
# WITNESS_LOG10_HI[i]: log10 of bound.hi of upper_bound_from_reduction(15, s)
# at the pool scale s of 10^80; a witness may exceed it by WITNESS_LOG10_TOL
# (float rounding of the logarithm) and no more.
WITNESS_LOG10_HI = (
    -76.41458883884602, -76.41458883884602, -76.54299011120563, -76.41458883884602,
    -76.62335325244518, -76.41458883884602, -76.54299011120563, -76.41458883884602,
    -76.41458883884602, -76.54299011120563, -76.54299011120563, -76.54299011120563,
    -76.41458883884602, -76.62335325244518, -76.41458883884602, -76.41458883884602,
    -76.63547289357933, -76.41458883884602, -76.41458883884602, -76.63547289357933,
    -76.41458883884602, -76.41458883884602, -76.41458883884602, -76.62335325244518,
    -76.62335325244518, -76.41458883884602, -76.63547289357933, -76.62335325244518,
    -76.41458883884602, -76.54299011120563, -76.41458883884602, -76.41458883884602,
)
WITNESS_LOG10_TOL = 1e-9

# (k, log10 N): the first scale on the 10^5 grid that certifies.  The ladder
# is fixed: its scales do not follow the seed.  The work of one reduction
# moves by up to 2.8x when N moves by a factor below 1 + 10^-6 (k = 40, five
# seeds: 7.8 s to 21.8 s; k = 30, eight seeds: 2.0 s to 4.2 s; k = 20: 0.49 s
# to 0.89 s), so a seeded ladder would compare inputs rather than code.  It
# stops at k = 30: a run fits one k = 40 certificate (15-20 s), whose time
# moved by 23% between runs on the same input.
LADDER = ((20, 50), (25, 65), (30, 80))
SEARCH_KS = (10, 12, 14)
SEARCH_STEP = 10
WITNESS_K, WITNESS_LOG10_N = 15, 80
ORACLE_N, ORACLE_K, ORACLE_VARIANT = 6, 4, "R"
ORACLE_WITNESS = RadicalSum.from_terms([(-1, 2), (1, 3), (1, 5), (1, 6)], offset=5)
ORACLE_INSTANCES = 9100


@dataclass(frozen=True)
class Task:
    """One benchmark call: `run(x)` returns the output for input x,
    `check(x, output)` returns None or a failure message, `digest`
    fingerprints the output for the determinism check, and `facts` extracts
    exact numbers that the report prints."""

    name: str
    inputs: tuple
    run: Callable[[object], object]
    check: Callable[[object, object], str | None]
    digest: Callable[[object], str]
    facts: Callable[[object], dict] = lambda output: {}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def seeded_inputs(scale: int, records: tuple, rng: random.Random) -> tuple[tuple[int, object], ...]:
    """VARIANTS pairs (scale * pool factor, the record for that factor)."""
    picks = rng.sample(range(len(POOL_OFFSETS)), VARIANTS)
    return tuple((scale * (SCALE_DEN + POOL_OFFSETS[i]) // SCALE_DEN, records[i]) for i in picks)


def _log10_fraction(x: Fraction) -> float:
    return math.log10(x.numerator) - math.log10(x.denominator)


def _passes_threshold(k: int, min_norm_sq: Fraction) -> bool:
    return certification_threshold(k).exceeded_by(min_norm_sq)


# -- certify-ladder: `sqrtgap certify` through cli.main, stdout parsed --------

def _certify_task(k: int, scales: tuple[int, ...]) -> Task:
    def run(scale):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["certify", "--k", str(k), "--N", str(scale)])
        return code, out.getvalue()

    def check(scale, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        result = json.loads(text)["result"]
        if result["N"] != str(scale) or result["k"] != k:
            return "report names another instance"
        if result["threshold_passed"] is not True:
            return "threshold_passed is not true"
        norm = result["min_gs_norm_sq"]
        if not _passes_threshold(k, Fraction(int(norm["num"]), int(norm["den"]))):
            return "reported min_gs_norm_sq does not exceed the threshold"
        return None

    return Task(f"certify.k{k}", scales, run, check, lambda output: _sha(repr(output)))


def certify_ladder(seed: int) -> list[Task]:
    return [_certify_task(k, (10**e,)) for k, e in LADDER]


# -- scale-search: find_lower_bound over adjacent scales ---------------------

def _search_task(k: int, inputs: tuple[tuple[int, int], ...]) -> Task:
    """inputs: (start scale, recorded steps j: the certified scale was start * 10^j)."""

    def run(x):
        start = x[0]
        log: list[tuple[int, bool]] = []
        cert = bounds.find_lower_bound(
            k, step=SEARCH_STEP, start_scale=start,
            progress=lambda c: log.append((c.scale, c.threshold_passed)),
        )
        return cert, log

    def check(x, output):
        start, steps = x
        cert, log = output
        if log[0][0] != start:
            return "the search did not start at the given scale"
        if not cert.threshold_passed or not _passes_threshold(k, cert.min_gs_norm_sq):
            return "returned certificate does not pass"
        if not log or log[-1] != (cert.scale, True):
            return "progress log does not end at the returned certificate"
        if len(log) < 2 or log[-2][1]:
            return "the scale before the certified one did not fail"
        if cert.scale > start * 10**steps:
            return f"certified {cert.scale}, weaker than the recorded start * 10^{steps}"
        return None

    def digest(output):
        cert, log = output
        return _sha(repr((cert.scale, cert.min_gs_norm_sq, log)))

    def facts(output):
        cert, log = output
        return {"certified_log10_N": len(str(cert.scale)) - 1, "search_scales": len(log)}

    return Task(f"search.k{k}", inputs, run, check, digest, facts)


def scale_search(seed: int) -> list[Task]:
    rng = random.Random(seed)
    return [_search_task(k, seeded_inputs(10**k, SEARCH_STEPS[k], rng)) for k in SEARCH_KS]


# -- witness-oracle: one upper-bound witness, one exhaustive oracle ----------

def _witness_task(k: int, inputs: tuple[tuple[int, float], ...]) -> Task:
    """inputs: (scale, recorded log10 of the witness enclosure's hi)."""

    def run(x):
        return bounds.upper_bound_from_reduction(k, x[0])

    def check(x, w):
        scale, log10_hi = x
        if w.scale != scale:
            return "the witness is for another scale"
        if not w.bound.hi <= w.row_inequality_rhs():
            return "witness enclosure exceeds the row inequality"
        if _log10_fraction(w.bound.hi) > log10_hi + WITNESS_LOG10_TOL:
            return f"witness hi 10^{_log10_fraction(w.bound.hi):.6f} is weaker than the recorded 10^{log10_hi:.6f}"
        return None

    def digest(w):
        return _sha(repr((w.coefficients, w.offset, w.first_coord, w.bound.lo, w.bound.hi)))

    def facts(w):
        return {"witness_log10_gap": _log10_fraction(w.bound.hi)}

    return Task(f"witness.k{k}", inputs, run, check, digest, facts)


def _oracle_task() -> Task:
    def run(_):
        return oracle.brute_force(ORACLE_N, ORACLE_K, ORACLE_VARIANT)

    def check(_, r):
        if r.witness != ORACLE_WITNESS:
            return f"witness {r.witness} is not {ORACLE_WITNESS}"
        if r.instance_count != ORACLE_INSTANCES:
            return f"instance_count {r.instance_count} is not {ORACLE_INSTANCES}"
        return None

    def digest(r):
        return _sha(repr((r.witness, r.value.lo, r.value.hi, r.instance_count)))

    def facts(r):
        return {"oracle_instances": r.instance_count}

    return Task(f"oracle.n{ORACLE_N}k{ORACLE_K}{ORACLE_VARIANT}", (None,), run, check, digest, facts)


def witness_oracle(seed: int) -> list[Task]:
    rng = random.Random(seed)
    return [_witness_task(WITNESS_K, seeded_inputs(10**WITNESS_LOG10_N, WITNESS_LOG10_HI, rng)),
            _oracle_task()]


WORKLOADS: dict[str, Callable[[int], list[Task]]] = {
    "certify-ladder": certify_ladder,
    "scale-search": scale_search,
    "witness-oracle": witness_oracle,
}
