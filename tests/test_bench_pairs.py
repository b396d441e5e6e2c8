import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _tree(root: Path, correct: bool = True, wall_s: float = 0.5, ok_frac: float = 1.0,
          wall_s_by_seed: dict | None = None) -> Path:
    """A tree whose perfbench/run.py prints one result line and exits 0; its
    wall_s is wall_s_by_seed[seed] where that is given."""
    result = {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "ok_frac": {"value": ok_frac, "unit": "ratio"}}}
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        f"result = json.loads({json.dumps(json.dumps(result))})\n"
        "seed = sys.argv[sys.argv.index('--seed') + 1]\n"
        f"result['metrics']['wall_s']['value'] = {wall_s_by_seed or {}!r}.get(seed, {wall_s!r})\n"
        "print(json.dumps(result))\n")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "ok_frac", "better": "higher", "bound": 0.01},
        {"name": "large_task_s", "better": "lower", "bound": 0.25}]}))
    return root


def test_a_run_that_is_not_correct_stops_the_script(tmp_path):
    good, bad = _tree(tmp_path / "good", True), _tree(tmp_path / "bad", False)
    assert bench_pairs.run_once(good, "scale-search", 7, 1)["correct"] is True
    with pytest.raises(SystemExit, match="scale-search seed 7 is not correct: 1 of 4 attempts"):
        bench_pairs.run_once(bad, "scale-search", 7, 1)
    out = tmp_path / "pairs.json"
    argv = ["--before", str(good), "--after", str(bad), "--workloads", "scale-search",
            "--seeds", "7", "--seconds", "1", "--claim", "scale-search:wall_s", "--out", str(out)]
    with pytest.raises(SystemExit, match=str(bad)):
        bench_pairs.main(argv)
    assert not out.exists()


def test_a_repeated_seed_is_refused_before_any_run(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    # the trees do not exist: refusing must come before any run or file read
    argv = ["--before", str(tmp_path / "a"), "--after", str(tmp_path / "b"),
            "--workloads", "scale-search", "--seeds", "1", "2", "1", "--seconds", "1",
            "--claim", "scale-search:wall_s", "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert "--seeds repeats 1; give each seed once" in capsys.readouterr().err
    assert not out.exists()


def test_without_a_claim_the_report_lists_regressions_beyond_each_bound(tmp_path, capsys):
    before = _tree(tmp_path / "before")
    out = tmp_path / "pairs.json"

    def report(after):
        argv = ["--before", str(before), "--after", str(after), "--workloads", "scale-search",
                "certify-ladder", "--seeds", "1", "2", "--seconds", "1", "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        return json.loads(out.read_text())

    # within the bounds: wall_s 25% slower, ok_frac 1% lower
    within = report(_tree(tmp_path / "within", wall_s=0.625, ok_frac=0.99))
    assert within["claim"] is None and within["regressions"] == []
    assert [run["side"] for run in within["runs"]][:4] == ["before", "after", "after", "before"]
    # past them, on both workloads; large_task_s, which no run reports, is skipped
    past = report(_tree(tmp_path / "past", wall_s=0.7, ok_frac=0.98))
    assert past["claim"] is None
    assert [(r["workload"], r["metric"]) for r in past["regressions"]] == [
        ("scale-search", "wall_s"), ("scale-search", "ok_frac"),
        ("certify-ladder", "wall_s"), ("certify-ladder", "ok_frac")]
    assert past["regressions"][0] == {"workload": "scale-search", "metric": "wall_s", "bound": 0.25,
                                      "median_before": 0.5, "median_after": 0.7}
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {
        "claim": None, "regressions": past["regressions"]}


def test_a_metric_whose_before_runs_spread_past_its_bound_reads_unresolved(tmp_path):
    out = tmp_path / "pairs.json"

    def report(before, after):
        argv = ["--before", str(before), "--after", str(after), "--workloads", "scale-search",
                "--seeds", "1", "2", "3", "4", "--seconds", "1", "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        return json.loads(out.read_text())

    # quartiles 0.425 and 0.9 (exclusive method) about a median of 0.55: a
    # spread of 86%, past wall_s's 25% bound; ok_frac does not spread
    noisy = _tree(tmp_path / "noisy", wall_s_by_seed={"1": 0.4, "2": 0.5, "3": 0.6, "4": 1.0})
    same = report(noisy, noisy)
    assert same["regressions"] == []
    assert same["unresolved"] == [{"workload": "scale-search", "metric": "wall_s", "bound": 0.25,
                                   "median_before": 0.55, "before_quartile_spread": 0.475}]
    # a regression stays a regression where the metric is also unresolved
    slower = report(noisy, _tree(tmp_path / "slower", wall_s=1.0))
    assert [(r["metric"], r["median_after"]) for r in slower["regressions"]] == [("wall_s", 1.0)]
    assert slower["unresolved"] == same["unresolved"]
    # a spread within the bound resolves the metric: 0.015 about 0.5
    steady = _tree(tmp_path / "steady", wall_s_by_seed={"1": 0.49, "2": 0.5, "3": 0.51, "4": 0.5})
    assert report(steady, steady)["unresolved"] == []
