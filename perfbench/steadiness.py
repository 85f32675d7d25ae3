#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, interleaved run by run.

    python3 perfbench/steadiness.py [--seeds 1-10] [--seconds S]

For every seed and every workload of BENCHMARK.json it runs perfbench/run.py
with --trace 0 once per set, set 1 then set 2, so drift of the machine lands
on both sets alike. --seconds defaults to run_seconds of BENCHMARK.json. It
then prints, per workload and end-to-end metric, each set's median and
quartiles over the seeds, the spread (q3 - q1) / median, and the relative
gap between the set medians, next to the bound BENCHMARK.json fixes for that
metric. The benchmark is steady when every spread and every gap stays within
its metric's bound; the exit code is 1 when one does not, or when a run
failed or reported an incorrect result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    # values[workload][set][metric] -> one value per seed
    values = {w: [{} for _ in range(SETS)] for w in workloads}
    problems = []
    for seed in seeds:
        for workload in workloads:
            for s in range(SETS):
                result = run_once(workload, seed, args.seconds)
                label = f"{workload} seed={seed} set={s + 1}"
                if result is None or not result["correct"]:
                    problems.append(f"{label}: failed or incorrect")
                    print(f"{label}: FAILED", file=sys.stderr, flush=True)
                    continue
                for name, metric in result["metrics"].items():
                    values[workload][s].setdefault(name, []).append(
                        metric["value"])
                print(f"{label}: ok", file=sys.stderr, flush=True)

    steady = not problems
    print(f"seeds {args.seeds}, {SETS} sets interleaved run by run, "
          f"--seconds {args.seconds}")
    for workload in workloads:
        print(f"\n## {workload}\n")
        header = ["metric", "bound"]
        for s in range(SETS):
            header += [f"set{s + 1} median", f"set{s + 1} q1..q3",
                       f"set{s + 1} spread"]
        header.append("gap")
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bound = metric["bound"]
            row = [name, f"{bound:.2f}"]
            medians = []
            for s in range(SETS):
                series = values[workload][s].get(name, [])
                if len(series) < 2:
                    row += ["-", "-", "-"]
                    steady = False
                    continue
                q1, median, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median if median else float("inf")
                medians.append(median)
                row += [f"{median:.6g}", f"{q1:.6g}..{q3:.6g}",
                        f"{spread:.3f}"]
                if spread > bound:
                    steady = False
            gap = (max(medians) - min(medians)) / min(medians) \
                if len(medians) == SETS and min(medians) else None
            if gap is None or gap > bound:
                steady = False
            row.append(f"{gap:.3f}" if gap is not None else "-")
            print("| " + " | ".join(row) + " |")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"\nsteady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
