"""Alternating before/after benchmark pairs, written as a BENCH_*.json file.

Each pair is one workload at one seed, run once in each of two checkouts:

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from the root of the checkout, keeping the last line of stdout (the run's
JSON result).  Within each workload the pairs alternate which side runs
first: odd pairs run the before tree first, even pairs the after tree, so a
drift of the machine during the session falls on both sides alike.

The claim (WORKLOAD:METRIC, optional) is scored from the pairs of its
workload: how many the after tree won (the metric's `better` direction is
read from the before tree's BENCHMARK.json), both medians, and the spread
between the quartiles of the before runs (statistics.quantiles, exclusive
method); without --claim the report's claim is null.  Either way the report
lists as regressions each (workload, end-to-end metric) whose after median
is worse than the before median by more than the metric's relative bound
in that BENCHMARK.json.  Pairs are keyed by seed, so a seed given twice is
refused before any run, and a run that is not `correct` stops the script,
naming it, before anything is written.

Stdlib only; it imports nothing from the library and writes only --out.
Give each side its own copy of the tree, for example made by `git archive`:

    python3 scripts/bench_pairs.py --before ../parent --after . \\
        --workloads certify-ladder scale-search witness-oracle \\
        --seeds 41 42 43 44 45 46 --seconds 30 \\
        --claim certify-ladder:wall_s --what "..." --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one benchmark run in tree.  A run whose outputs
    failed their check stops the script: perfbench/run.py exits 0 for it,
    and its timings would score a claim on wrong results."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{tree}: {workload} seed {seed} is not correct: {result['failed']} of"
                         f" {result['attempted']} attempts failed their output check")
    return result


def run_pairs(before: Path, after: Path, workloads, seeds, seconds: float) -> list[dict]:
    runs = []
    for workload in workloads:
        for pair, seed in enumerate(seeds, start=1):
            sides = [("before", before), ("after", after)]
            for side, tree in sides if pair % 2 else sides[::-1]:
                result = run_once(tree, workload, seed, seconds)
                runs.append({"side": side, "workload": workload, "seed": seed, "result": result})
                print(side, workload, seed, result["metrics"].get("wall_s", {}).get("value"),
                      file=sys.stderr)
    return runs


def _value(run: dict, metric: str) -> float:
    return run["result"]["metrics"][metric]["value"]


def medians(runs: list[dict]) -> dict:
    """Median of every metric, by workload and side, with the run count."""
    out: dict = {}
    for run in runs:
        out.setdefault(run["workload"], {}).setdefault(run["side"], []).append(run)
    return {
        workload: {
            side: {**{metric: round(statistics.median(_value(r, metric) for r in group), 4)
                      for metric in group[0]["result"]["metrics"]},
                   "runs": len(group)}
            for side, group in sorted(by_side.items(), key=lambda item: item[0] != "before")
        }
        for workload, by_side in out.items()
    }


def score_claim(runs: list[dict], workload: str, metric: str, lower_is_better: bool) -> dict:
    """Pairs won by the after tree on metric, both medians and the before
    runs' quartile spread."""
    pairs: dict = {}
    for run in runs:
        if run["workload"] == workload:
            pairs.setdefault(run["seed"], {})[run["side"]] = _value(run, metric)
    before = [p["before"] for p in pairs.values()]
    after = [p["after"] for p in pairs.values()]
    won = sum((a < b) if lower_is_better else (a > b) for b, a in zip(before, after))
    q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else (before[0],) * 3
    return {"workload": workload, "metric": metric, "pairs": len(pairs), "pairs_won": won,
            "median_before": round(statistics.median(before), 4),
            "median_after": round(statistics.median(after), 4),
            "before_quartile_spread": round(q3 - q1, 4)}


def regressions(runs: list[dict], declared: list[dict]) -> list[dict]:
    """Each (workload, end-to-end metric) whose after median is worse than
    the before median by more than the metric's relative bound."""
    found = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        for entry in declared:
            metric, lower = entry["name"], entry["better"] == "lower"
            group = [r for r in runs if r["workload"] == workload and metric in r["result"]["metrics"]]
            if not group:
                continue
            before, after = (statistics.median(_value(r, metric) for r in group if r["side"] == side)
                             for side in ("before", "after"))
            limit = before * (1 + entry["bound"] if lower else 1 - entry["bound"])
            worse = after > limit if lower else after < limit
            if worse:
                found.append({"workload": workload, "metric": metric, "bound": entry["bound"],
                              "median_before": round(before, 4), "median_after": round(after, 4)})
    return found


def _end_to_end(tree: Path) -> list[dict]:
    return json.loads((tree / "BENCHMARK.json").read_text())["end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--after", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--claim", help="WORKLOAD:METRIC, scored if given")
    parser.add_argument("--what", default="", help="the change measured")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    repeated = sorted({seed for seed in args.seeds if args.seeds.count(seed) > 1})
    if repeated:  # score_claim pairs runs by seed, so a repeat would overwrite a pair
        parser.error(f"--seeds repeats {', '.join(map(str, repeated))}; give each seed once")
    declared = _end_to_end(args.before)
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workloads or not metric:
            parser.error(f"--claim {args.claim!r} needs WORKLOAD:METRIC with WORKLOAD in --workloads")
        better = {entry["name"]: entry["better"] for entry in declared}
        if metric not in better:
            raise SystemExit(f"{metric} is not an end-to-end metric of {args.before / 'BENCHMARK.json'}")
    runs = run_pairs(args.before.resolve(), args.after.resolve(), args.workloads, args.seeds,
                     args.seconds)
    seconds = f"{args.seconds:g}"
    report = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds}"
                   " --trace 0 (last line of stdout)",
        "machine": f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()};"
                   " before and after alternate within each pair (odd pairs before first, even"
                   " pairs after first), each side in its own tree",
        "claim": None if args.claim is None else score_claim(runs, workload, metric,
                                                             better[metric] == "lower"),
        "regressions": regressions(runs, declared),
        "median_by_workload": medians(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({key: report[key] for key in ("claim", "regressions")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
