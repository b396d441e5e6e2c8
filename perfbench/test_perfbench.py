"""Self-tests of the benchmark, on instances small enough to run in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from sqrtgap import bounds, oracle  # noqa: E402

SEARCH_START = 10**4


def small_records():
    """(scale certified by the small search, its steps, log10 hi of the small witness)."""
    found = bounds.find_lower_bound(4, step=10, start_scale=SEARCH_START)
    steps = len(str(found.scale)) - len(str(SEARCH_START))
    witness = bounds.upper_bound_from_reduction(5, 10**20)
    return found.scale, steps, workloads._log10_fraction(witness.bound.hi)


def small_tasks() -> list[workloads.Task]:
    """One small task per entry point, each of which passes its check."""
    scale, steps, log10_hi = small_records()
    return [
        workloads._certify_task(4, (scale,)),
        workloads._search_task(4, ((SEARCH_START, steps),)),
        workloads._witness_task(5, ((10**20, log10_hi),)),
        workloads.Task("oracle.n3k2R", (None,), lambda _: oracle.brute_force(3, 2, "R"),
                       lambda _, r: None, lambda r: repr(r.witness),
                       lambda r: {"oracle_instances": r.instance_count}),
    ]


def bindings() -> dict[tuple[str, str], object]:
    return {(m, a): getattr(tracing.MODULES[m], a) for m, a in tracing.BINDINGS}


def test_traced_run_restores_every_patched_attribute():
    before = bindings()
    tracer = tracing.Tracer()
    attempts = run.run_tasks(small_tasks(), 0.5, tracer)
    assert all(a.error is None for a in attempts), [a.error for a in attempts]
    assert len(tracer) > 0
    after = bindings()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_spans_every_binding_while_installed():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(v, "__wrapped__", None) is not None for v in bindings().values())
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    assert all(getattr(v, "__wrapped__", None) is None for v in bindings().values())


def test_self_times_are_nonnegative_and_within_the_task_time():
    tracer = tracing.Tracer()
    attempts = run.run_tasks(small_tasks(), 0.5, tracer)
    traced = [a for a in attempts if a.traced]
    assert traced
    for a in traced:
        self_times = a.summary["self"].values()
        assert all(t >= 0 for t in self_times)
        assert sum(self_times) <= a.seconds
    metrics, shares = run.per_layer(small_tasks(), attempts, tracing.span_cost())
    assert all(value >= 0 for value in shares.values())
    assert metrics["oracle.instances"][0] > 0 and metrics["reduction.bkz_calls"][0] > 0
    assert metrics["trace.overhead_s"][0] > 0


def test_injected_output_mismatch_is_counted_and_the_run_completes():
    tasks = small_tasks()
    broken = workloads.Task(tasks[2].name, tasks[2].inputs, tasks[2].run,
                            lambda x, out: "injected mismatch", tasks[2].digest)
    tasks[2] = broken
    attempts = run.run_tasks(tasks, 0.5)
    failed = [a for a in attempts if a.error is not None]
    assert failed and all(a.task == broken.name and a.error == "injected mismatch" for a in failed)
    assert {a.task for a in attempts} == {t.name for t in tasks}
    e2e = run.end_to_end(tasks, attempts, setup_s=0.1)
    assert e2e["ok_frac"][0] == 1 - len(failed) / len(attempts)
    named = dict((name, value) for name, value, _ in run.named_metrics(tasks, attempts))
    assert named["failed_frac"] == len(failed) / len(attempts)


def test_result_weaker_than_its_record_fails_the_check():
    _, steps, log10_hi = small_records()
    for task in (workloads._search_task(4, ((SEARCH_START, steps - 1),)),
                 workloads._witness_task(5, ((10**20, log10_hi - 0.01),))):
        x = task.inputs[0]
        assert "weaker" in task.check(x, task.run(x))


def test_nondeterministic_output_fails_the_repeat():
    outputs = iter(range(1000))
    task = workloads.Task("counter", (None,), lambda _: next(outputs),
                          lambda x, out: None, lambda out: str(out))
    attempts = run.run_tasks([task], 0.5)
    assert len(attempts) >= 2
    assert attempts[0].error is None
    assert all("differs" in a.error for a in attempts[1:])


def test_task_over_its_cap_times_out_and_the_run_goes_on():
    def spin(_):
        while True:
            pass

    tasks = [workloads.Task("spin", (None,), spin, lambda x, out: None, str),
             small_tasks()[1]]
    attempts = run.run_tasks(tasks, 0.0, task_cap_s=0.2)
    assert [a.error for a in attempts] == ["timed out", None]


def test_seed_fixes_the_inputs():
    for build in workloads.WORKLOADS.values():
        a, b, c = build(1), build(1), build(2)
        assert [t.inputs for t in a] == [t.inputs for t in b]
        assert [t.inputs for t in a] != [t.inputs for t in c] or len(a[0].inputs) == 1
    for task in workloads.certify_ladder(3):
        base = 10 ** dict(workloads.LADDER)[int(task.name.split("k")[1])]
        assert all(base <= s < base + base // 10**6 for s in task.inputs)


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((root / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in command]
        + ["--workload", "scale-search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
