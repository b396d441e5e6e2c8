"""Outside-in tracer: wraps the library's public functions where they are bound.

The library imports names with `from .x import y`, so a function is wrapped
at every module that binds it; each wrapper records one span per call with
name, start, end and parent id.  Spans stay in memory, are written once by
`write`, and every patched attribute is restored by `restore`.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction
from types import ModuleType

from sqrtgap import bounds, cli, exactnum, lattice, oracle, reduction, squarefree
from sqrtgap.bounds import certification_threshold

MODULES: dict[str, ModuleType] = {
    "bounds": bounds, "cli": cli, "exactnum": exactnum, "lattice": lattice,
    "oracle": oracle, "reduction": reduction, "squarefree": squarefree,
}

# (module, attribute) for every place a traced function is bound and called.
BINDINGS = (
    ("cli", "main"),
    ("bounds", "find_lower_bound"),
    ("bounds", "certify_lower_bound"),
    ("bounds", "upper_bound_from_reduction"),
    ("bounds", "certification_threshold"),
    ("bounds", "build_basis"),
    ("bounds", "bkz"),
    ("bounds", "reduced_profile"),
    ("bounds", "row_witness"),
    ("bounds", "enclose_radical_sum"),
    ("bounds", "compare_abs"),
    ("reduction", "enumerate_block"),
    ("reduction", "verify_reduced"),
    ("reduction", "complete_to_unimodular"),
    ("reduction", "fraction_gso"),
    ("lattice", "fraction_gso"),
    ("squarefree", "squarefree_upto"),
    ("oracle", "brute_force"),
    ("oracle", "compare_abs"),
    ("oracle", "enclose_radical_sum"),
    ("exactnum", "enclose_radical_sum"),
)

BASE_BITS = exactnum.DEFAULT_START_BITS


def _bkz_dim(args, kwargs):
    basis = args[0] if args else kwargs["basis"]
    return len(basis.rows) if isinstance(basis, lattice.LatticeBasis) else len(basis)


def _enclose_bits(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("precision_bits", BASE_BITS)


# Span name -> function of the call's arguments whose value is kept as a note.
_NOTE_ARGS = {"reduction.bkz": _bkz_dim, "exactnum.enclose_radical_sum": _enclose_bits}
# Span names whose result is kept as the note (fraction_gso: the GS norms).
_NOTE_RESULT = {"lattice.fraction_gso": lambda result: result[1]}


SPAN_COST_CALLS = 20000
SPAN_COST_REPEATS = 5


def span_cost() -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a plain one,
    median of SPAN_COST_REPEATS timings of SPAN_COST_CALLS calls each."""

    def noop():
        pass

    wrapped = Tracer()._wrap(noop)
    costs = []
    for _ in range(SPAN_COST_REPEATS):
        t0 = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        t1 = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            wrapped()
        t2 = time.perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / SPAN_COST_CALLS)
    return statistics.median(costs)


def span_name(func) -> str:
    return f"{func.__module__.rpartition('.')[2]}.{func.__name__}"


class Tracer:
    """Span recorder for one traced run; install() patches, restore() undoes."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.notes: dict[int, object] = {}
        self._current = -1
        self._saved: list[tuple[ModuleType, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr in BINDINGS:
            module = MODULES[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original):
        name = span_name(original)
        note_args = _NOTE_ARGS.get(name)
        note_result = _NOTE_RESULT.get(name)
        names, parents, starts, ends, notes = (
            self.names, self.parents, self.starts, self.ends, self.notes)
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(self._current)
            ends.append(0.0)
            if note_args is not None:
                notes[idx] = note_args(args, kwargs)
            self._current = idx
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self._current = parents[idx]
            if note_result is not None:
                notes[idx] = note_result(result)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def summarize(self, lo: int, hi: int) -> dict:
        """Raw per-layer numbers for the spans [lo, hi) of one task execution.

        A span's self time is its duration minus its direct children's.
        """
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        enum_children: Counter = Counter()
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child_time[p] += ends[i] - starts[i]
                if names[i] == "lattice.enumerate_block" and names[p] == "reduction.bkz":
                    enum_children[p] += 1
        bits = []
        last_norms = None
        passes = Fraction(0)
        for i in range(lo, hi):
            name = names[i]
            duration = ends[i] - starts[i]
            total[name] += duration
            self_time[name] += duration - child_time[i]
            calls[name] += 1
            if name == "reduction.bkz":
                passes += Fraction(enum_children[i], self.notes[i] - 1)
            elif name == "exactnum.enclose_radical_sum":
                bits.append(self.notes[i])
            elif name == "lattice.fraction_gso":
                last_norms = self.notes[i]
        margin = None
        if last_norms is not None:
            threshold = certification_threshold(len(last_norms) - 1).approx()
            low = min(last_norms)
            margin = math.log10(low.numerator) - math.log10(low.denominator) - math.log10(threshold)
        return {
            "total": total,
            "self": self_time,
            "calls": calls,
            "bkz_passes": passes,
            "windows": sum(enum_children.values()),
            "enclose_max_bits": max(bits, default=0),
            "refinements": sum(1 for b in bits if b > BASE_BITS),
            "margin_log10": margin,
        }

    def write(self, path: str, origin: float) -> None:
        """Write every span as one JSON line, times in seconds from origin."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start": round(self.starts[i] - origin, 9),
                    "end": round(self.ends[i] - origin, 9),
                }) + "\n")

