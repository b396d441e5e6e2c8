"""sqrtgap benchmark: one closed-loop client, one process, no threads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-ladder --seed 1 --seconds 30 --trace 0

The run measures set-up in fresh interpreters, then calls the workload's
tasks in order, one at a time, until --seconds have passed (every task runs
at least once), and checks every output.  Report lines go to stdout first;
the last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 1 the run times each task's first input
untraced and then through the outside-in tracer (tracer.py), in turn,
reports per-layer metrics and writes the spans to perfbench/out/.
Workloads are in workloads.py; predictions, bounds and baselines in
design.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from calibration import CAL_FIRST_S, CAL_REF_S, CAL_SHARE, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TASK_CAP_S = 90.0  # a task running longer is stopped and counted as failed
RUN_LIMIT_S = 150.0  # no task starts, and none runs on, past this point of the run
SETUP_REPEATS = 15
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import sqrtgap; sqrtgap.squarefree_upto(64)"
TRACE_REPEATS = 3  # traced executions per task at most, to bound span memory


class TaskTimeout(BaseException):
    """Raised by SIGALRM when a task exceeds its time cap.

    A BaseException, so no `except Exception` inside the library swallows it.
    """


def _on_alarm(signum, frame):
    raise TaskTimeout


@dataclass
class Attempt:
    task: str
    variant: int  # index into the task's inputs
    start: float
    seconds: float | None  # None: not started, the run limit had passed
    error: str | None
    traced: bool
    cal: float | None = None  # calibration kernel time around this attempt
    facts: dict = field(default_factory=dict)
    summary: dict | None = None  # per-layer numbers of a traced execution

    @property
    def scaled(self) -> float:
        """Seconds at the reference speed: seconds * CAL_REF_S / cal."""
        return self.seconds * CAL_REF_S / self.cal


def measure_setup() -> float:
    """Median time, scaled to the reference speed, of a fresh interpreter
    importing sqrtgap and warming the sieve."""
    cal = Calibration()
    cal.run(0.1)
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE], cwd=ROOT, check=True)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        cal.run(0.05)
    return statistics.median((t1 - t0) * CAL_REF_S / cal.around(t0, t1) for t0, t1 in spans)


def _sqrt_cache():
    from sqrtgap import exactnum

    info = exactnum._sqrt_bracket.cache_info()
    return info.hits, info.misses


def _check(task, variant: int, output, digests: dict) -> tuple[str | None, dict]:
    """Run the task's output check and the determinism check."""
    try:
        error = task.check(task.inputs[variant], output)
        digest = task.digest(output)
        facts = task.facts(output)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return f"check raised {type(exc).__name__}: {exc}", {}
    first = digests.setdefault((task.name, variant), digest)
    if error is None and first != digest:
        error = f"output digest {digest} differs from the first repeat's {first}"
    return error, facts


def run_tasks(tasks, seconds: float, tracer=None, *, task_cap_s: float = TASK_CAP_S) -> list[Attempt]:
    """Closed loop over `tasks` for `seconds`; returns every attempt.

    Every task runs once; after that the task with the fewest repeats runs
    again, as long as its median step still fits before `seconds`.  Untraced
    repeats cycle through the task's inputs.  With a tracer each step is one
    untraced and then one traced execution of the task's first input (at most
    TRACE_REPEATS steps per task), so that per-layer counts repeat exactly per
    seed and the two sides of the tracing overhead time the same calls.
    """
    clock = time.perf_counter
    start = clock()
    limit = start + RUN_LIMIT_S
    attempts: list[Attempt] = []
    digests: dict[tuple[str, int], str] = {}
    cal = Calibration()
    cal.run(CAL_FIRST_S)

    def attempt(task, variant: int, traced: bool = False) -> None:
        remaining = limit - clock()
        if remaining <= 0:
            attempts.append(Attempt(task.name, variant, clock(), None,
                                    "not started: run limit reached", traced))
            return
        lo = len(tracer) if traced else 0
        cache0 = _sqrt_cache() if traced else None
        output, error = None, None
        t0 = clock()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, min(task_cap_s, remaining))
                output = task.run(task.inputs[variant])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except TaskTimeout:
            error = "timed out"
        except Exception as exc:  # a failing task is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        summary, facts = None, {}
        if error is None:
            if traced:
                summary = tracer.summarize(lo, len(tracer))
                cache1 = _sqrt_cache()
                summary["cache_hits"] = cache1[0] - cache0[0]
                summary["cache_misses"] = cache1[1] - cache0[1]
            error, facts = _check(task, variant, output, digests)
        attempts.append(Attempt(task.name, variant, t0, elapsed, error, traced, None, facts, summary))
        cal.run(CAL_SHARE * elapsed)

    def untraced(task) -> None:
        attempt(task, sum(a.task == task.name for a in attempts) % len(task.inputs))

    def pair(task) -> None:
        attempt(task, 0)
        tracer.install()
        try:
            attempt(task, 0, traced=True)
        finally:
            tracer.restore()

    def phase(step, cap: int | None) -> None:
        spent: dict[str, list[float]] = defaultdict(list)

        def timed(task) -> None:
            t0 = clock()
            step(task)
            spent[task.name].append(clock() - t0)

        for task in tasks:
            timed(task)
        while True:
            # Next is the task with the fewest steps whose median still fits.
            fits = [(len(spent[t.name]), i) for i, t in enumerate(tasks)
                    if (cap is None or len(spent[t.name]) < cap)
                    and clock() - start + statistics.median(spent[t.name]) <= seconds]
            if not fits:
                return
            timed(tasks[min(fits)[1]])

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if tracer is None:
            phase(untraced, None)
        else:
            phase(pair, TRACE_REPEATS)
    finally:
        signal.signal(signal.SIGALRM, previous)
    for a in attempts:
        if a.seconds is not None:
            a.cal = cal.around(a.start, a.start + a.seconds)
    return attempts


# -- metrics -----------------------------------------------------------------

def task_medians(tasks, attempts, traced: bool) -> dict[str, float]:
    """Median time per task, scaled to the reference speed."""
    out = {}
    for task in tasks:
        times = [a.scaled for a in attempts
                 if a.task == task.name and a.traced == traced and a.seconds is not None]
        if times:
            out[task.name] = statistics.median(times)
    return out


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least 10 samples above it, as (percent, value)."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def first_facts(attempts) -> dict[str, dict]:
    """Facts of each task's first input, which is the same in every run of a seed."""
    facts = {}
    for a in attempts:
        if a.error is None and a.variant == 0:
            facts.setdefault(a.task, a.facts)
    return facts


def end_to_end(tasks, attempts, setup_s: float) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json bounds; every workload reports all of them."""
    medians = task_medians(tasks, attempts, False)
    failed = sum(1 for a in attempts if a.error is not None)
    # A first or last task that never started (run limit reached) reads as the whole limit.
    return {
        "wall_s": (sum(medians.values()), "s"),
        "small_task_s": (medians.get(tasks[0].name, RUN_LIMIT_S), "s"),
        "large_task_s": (medians.get(tasks[-1].name, RUN_LIMIT_S), "s"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (1 - failed / len(attempts), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def named_metrics(tasks, attempts) -> list[tuple[str, float, str]]:
    """The workload's own end-to-end metrics, by the names the design uses."""
    medians = task_medians(tasks, attempts, False)
    facts = first_facts(attempts)
    out = []
    search = []
    for task in tasks:
        kind, _, label = task.name.partition(".")
        if task.name not in medians:
            continue
        t = medians[task.name]
        if kind == "certify":
            out.append((f"certify_s.{label}", t, "s"))
        elif kind == "search":
            search.append(t)
            out.append((f"search_s.{label}", t, "s"))
        elif kind == "witness":
            out.append(("witness_s", t, "s"))
            if task.name in facts:
                out.append(("witness_log10_gap", facts[task.name]["witness_log10_gap"], "log10"))
        elif kind == "oracle" and task.name in facts:
            out.append(("oracle_instances_per_s", facts[task.name]["oracle_instances"] / t, "1/s"))
    if search:
        out.append(("search_s", statistics.mean(search), "s"))
        exps = [f["certified_log10_N"] for f in facts.values() if "certified_log10_N" in f]
        out.append(("certified_log10_N_sum", sum(exps), "log10"))
    failed = sum(1 for a in attempts if a.error is not None)
    out.append(("failed_frac", failed / len(attempts), "ratio"))
    return out


def measured_overhead(tasks, attempts) -> float:
    """Traced minus untraced median (scaled) time per task, summed over the tasks."""
    overhead = 0.0
    for task in tasks:
        sides = [[a.scaled for a in attempts if a.task == task.name and a.traced == traced
                  and a.error is None] for traced in (False, True)]
        if all(sides):
            overhead += statistics.median(sides[1]) - statistics.median(sides[0])
    return overhead


def per_layer(tasks, attempts, span_cost: float) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics of one pass: per task, the median over its traced
    executions; then summed over the workload's tasks.  The tracing overhead
    is the pass's spans times `span_cost`, the measured cost of one span.
    Also returns each layer's self-time share of the traced pass."""
    per_task: dict[str, list[dict]] = defaultdict(list)
    for a in attempts:
        if a.traced and a.error is None:
            flat = {"task_s": a.seconds, "spans": sum(a.summary["calls"].values())}
            for kind in ("total", "self", "calls"):
                for name, value in a.summary[kind].items():
                    flat[f"{kind}:{name}"] = value
            for key in ("bkz_passes", "windows", "refinements", "cache_hits", "cache_misses"):
                flat[key] = a.summary[key]
            for key, value in a.facts.items():
                flat[key] = value
            per_task[a.task].append(flat)
    s: dict[str, float] = defaultdict(float)
    max_bits, margins = 0, []
    for task, runs in per_task.items():
        for key in set().union(*runs):
            s[key] += statistics.median(r.get(key, 0) for r in runs)
        summaries = [a.summary for a in attempts if a.task == task and a.summary]
        max_bits = max([max_bits] + [x["enclose_max_bits"] for x in summaries])
        margins += [x["margin_log10"] for x in summaries if x["margin_log10"] is not None]

    pass_s = s["task_s"]

    def pct(x):
        return 100 * x / pass_s if pass_s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    hits, misses = s["cache_hits"], s["cache_misses"]
    m = {
        "reduction.bkz_s": (s["total:reduction.bkz"], "s"),
        "reduction.bkz_self_s": (s["self:reduction.bkz"], "s"),
        "reduction.bkz_calls": (s["calls:reduction.bkz"], "count"),
        "reduction.bkz_passes": (float(s["bkz_passes"]), "count"),
        "reduction.insertions": (s["calls:reduction.complete_to_unimodular"], "count"),
        "reduction.insertion_ratio": (ratio(s["calls:reduction.complete_to_unimodular"], s["windows"]), "ratio"),
        "reduction.verify_s": (s["total:reduction.verify_reduced"], "s"),
        "reduction.min_gs_margin_log10": (min(margins, default=0.0), "log10"),
        "lattice.enumerate_block_s": (s["total:lattice.enumerate_block"], "s"),
        "lattice.enumerate_block_calls": (s["calls:lattice.enumerate_block"], "count"),
        "lattice.fraction_gso_s": (s["total:lattice.fraction_gso"], "s"),
        "lattice.fraction_gso_calls": (s["calls:lattice.fraction_gso"], "count"),
        "lattice.build_basis_s": (s["total:lattice.build_basis"], "s"),
        "bounds.search_scales": (s["search_scales"], "count"),
        "bounds.threshold_s": (s["total:bounds.certification_threshold"], "s"),
        "bounds.certify_self_s": (s["self:bounds.certify_lower_bound"], "s"),
        "bounds.row_witness_s": (s["total:bounds.row_witness"], "s"),
        "bounds.row_witness_calls": (s["calls:bounds.row_witness"], "count"),
        "bounds.certified_log10_N_sum": (s["certified_log10_N"], "log10"),
        "bounds.witness_log10_gap": (s["witness_log10_gap"], "log10"),
        "exactnum.enclose_s": (s["total:exactnum.enclose_radical_sum"], "s"),
        "exactnum.enclose_calls": (s["calls:exactnum.enclose_radical_sum"], "count"),
        "exactnum.enclose_max_bits": (max_bits, "bits"),
        "exactnum.refinements": (s["refinements"], "count"),
        "exactnum.compare_abs_s": (s["total:exactnum.compare_abs"], "s"),
        "exactnum.compare_abs_calls": (s["calls:exactnum.compare_abs"], "count"),
        "exactnum.sqrt_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "oracle.brute_force_s": (s["total:oracle.brute_force"], "s"),
        "oracle.self_s": (s["self:oracle.brute_force"], "s"),
        "oracle.instances": (s["oracle_instances"], "count"),
        "squarefree.upto_s": (s["total:squarefree.squarefree_upto"], "s"),
        "squarefree.upto_calls": (s["calls:squarefree.squarefree_upto"], "count"),
        "cli.self_s": (s["self:cli.main"], "s"),
        "trace.overhead_s": (s["spans"] * span_cost, "s"),
        "trace.spans": (s["spans"], "count"),
    }
    shares: dict[str, float] = defaultdict(float)
    for key, value in s.items():
        if key.startswith("self:"):
            shares[key[5:].partition(".")[0]] += pct(value)
    return m, dict(shares)


# -- entry point ---------------------------------------------------------------

def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sqrtgap benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqrtgap" / "__init__.py").is_file():
        return _fail(f"no sqrtgap sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import sqrtgap
    import tracer as tracing
    from workloads import WORKLOADS

    if Path(sqrtgap.__file__).resolve().parent != SRC / "sqrtgap":
        return _fail(f"imported sqrtgap from {sqrtgap.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    tasks = WORKLOADS[args.workload](args.seed)
    setup_s = None if args.trace else measure_setup()
    sqrtgap.squarefree_upto(64)  # the same warm-up, in this process
    tracer = tracing.Tracer() if args.trace else None
    origin = time.perf_counter()
    attempts = run_tasks(tasks, args.seconds, tracer)

    print(f"# sqrtgap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}; one client, closed loop, one process")
    cals = [a.cal for a in attempts if a.cal is not None]
    if cals:
        print(f"calibration: kernel median {statistics.median(cals):.6f} s, reference "
              f"{CAL_REF_S} s; times below are scaled by {CAL_REF_S / statistics.median(cals):.4f}")
    for task in tasks:
        mine = [a for a in attempts if a.task == task.name]
        timed = [a for a in mine if a.seconds is not None and a.traced == bool(args.trace)]
        line = f"task {task.name}: n={len(timed)}"
        if timed:
            scaled = [a.scaled for a in timed]
            line += (f" median={statistics.median(scaled):.6f} s"
                     f" (unscaled {statistics.median(a.seconds for a in timed):.6f} s)")
            if tail(scaled):
                q, v = tail(scaled)
                line += f" p{q}={v:.6f} s"
        errors = [a.error for a in mine if a.error]
        line += f" failed={len(errors)}" + (f" first_error={errors[0]!r}" if errors else "")
        print(line)

    failed = sum(1 for a in attempts if a.error is not None)
    if args.trace:
        span_cost = tracing.span_cost()
        metrics, shares = per_layer(tasks, attempts, span_cost)
        print(f"trace: one span costs {span_cost * 1e6:.3f} us; traced minus untraced task medians,"
              f" summed: {measured_overhead(tasks, attempts):.6f} s")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"share {layer}: {share:.2f} % of the traced pass (self time)")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(path), origin)
        print(f"spans: {len(tracer)} written to {path.relative_to(ROOT)}")
    else:
        for name, value, unit in named_metrics(tasks, attempts):
            print(f"metric {name} = {value:.6g} {unit}")
        metrics = end_to_end(tasks, attempts, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{'layer' if args.trace else 'end_to_end'} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
