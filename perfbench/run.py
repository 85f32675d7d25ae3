#!/usr/bin/env python3
"""End-to-end surveillance benchmark: quarter files -> published snapshot ->
drill-down queries, with a traced per-layer pass.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N [--seconds S]

The first form is one benchmark run. It builds surveillance_bench from the
sources in this checkout (into .bench_build/), generates the workload's
corpus from the seed, runs the correctness gate, measures for --seconds and
prints, as its last line, one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The spans of the traced
passes are written to .bench_build/traces/. The second form runs every
workload on one seed (both trace modes) and prints each metric with its
unit; use it to check a result on a seed other than the one it was
developed on. README.md explains the workloads and metrics.
"""

import argparse
import array
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
BINARY = BUILD / "surveillance_bench"
BUILD_TYPE = "Release"

# The workloads and metrics, with their names and units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_SETUPS = 3         # setup_s is the median of at least this many set-ups
SETUP_SECONDS = 4.0    # ... and of as many more as fit in this time,
MAX_SETUPS = 12        # ... up to this many
MIN_REPS = 4           # measured passes per run, at least
REQUESTS = 500000      # closed-loop requests per query process
CALLS = 20000          # calls per timed batch in a traced pass
RUN_LIMIT_S = 160.0    # start no pass that could end after this
PASS_TIMEOUT_S = 150.0
MB = 1024.0 * 1024.0


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally; output goes to a log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = WORK / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "surveillance_bench"]]
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def bench(args, timeout=PASS_TIMEOUT_S):
    """Runs one surveillance_bench process; returns its JSON object. A pass
    that fails still reports its result; any other command must succeed."""
    proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                          text=True, timeout=timeout)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{args[0]} exited {proc.returncode} without a "
                         f"result: {proc.stderr.strip()[-500:]}")
    if args[0] != "pass" and proc.returncode != 0:
        raise BenchError(f"{args[0]} failed: {proc.stderr.strip()[-500:]}")
    return result


def quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def metadata(workload, threads):
    def git_revision():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
        return "unavailable"

    # A checkout without .git still identifies its program by content.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.glob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "hardware_threads": len(os.sched_getaffinity(0)),
        "worker_threads": threads,
        "build_type": BUILD_TYPE,
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest()[:16],
    }


class Run:
    """One benchmark run of one workload: set-up, gate, measured passes."""

    def __init__(self, table, workload, seed, seconds, trace):
        if workload not in table:
            raise BenchError(f"surveillance_bench has no workload {workload}")
        self.table = table
        self.workload = workload
        self.threads = table[workload]["threads"]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.dir = WORK / "work" / workload
        self.quarters = self.dir / "quarters"
        self.store = self.dir / "store"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.passes = []
        self.queries = []
        self.setups = []
        self.partner = None

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def elapsed(self):
        return time.monotonic() - self.start

    def setup(self):
        """One set-up; it rewrites the corpus the passes read. Set-ups are
        spread over the run, between passes, so that setup_s samples the
        machine over the run as the passes do."""
        result = bench(["setup", "--workload", self.workload,
                        "--seed", str(self.seed), "--dir", str(self.quarters)])
        self.setups.append(result)
        self.row_faults = self.setups[0]["row_faults"]
        self.input_bytes = self.setups[0]["input_bytes"]

    def setup_wanted(self):
        times = [r["setup_s"] for r in self.setups]
        return len(times) < MIN_SETUPS or (
            sum(times) < SETUP_SECONDS and len(times) < MAX_SETUPS)

    def run_pass(self, traced, requests, threads=None):
        args = ["pass", "--workload", self.workload, "--seed", str(self.seed),
                "--dir", str(self.quarters), "--store", str(self.store),
                "--requests", str(requests)]
        if traced:
            args.append("--traced")
        if threads is not None:
            args += ["--threads", str(threads)]
        started = time.monotonic()
        try:
            result = bench(args)
        except BenchError as error:  # a crash fails the pass, not the run
            result = {"ok": False, "mode": "traced" if traced else "untraced",
                      "threads": threads, "check_failures": [str(error)]}
        result["wall_s"] = time.monotonic() - started
        self.attempted += 1
        if not result.get("ok") or result.get("check_failures"):
            self.fail(f"{result.get('mode')} pass: "
                      f"{result.get('check_failures')}")
        elif result["rows_quarantined"] != self.row_faults:
            self.fail(f"quarantined {result['rows_quarantined']} rows, "
                      f"injected {self.row_faults} faults")
        self.passes.append(result)
        return result

    def run_query(self):
        """One reader process: the query phase against the generation the
        last pass published."""
        started = time.monotonic()
        try:
            result = bench(["query", "--workload", self.workload,
                            "--seed", str(self.seed), "--store",
                            str(self.store), "--requests", str(REQUESTS)])
        except BenchError as error:
            result = {"ok": False, "check_failures": [str(error)]}
        result["wall_s"] = time.monotonic() - started
        query = result.get("query")
        if not result.get("ok") or not query:
            self.attempted += 1
            self.fail(f"query process: {result.get('check_failures')}")
            return result
        self.attempted += query["requests"]
        self.failed += query["failed"]
        if query["failed"]:
            self.problems.append(f"{query['failed']} requests failed, "
                                 f"first: {query['first_error']}")
        if result["snapshot_digest"] != self.passes[-1].get("snapshot_digest"):
            self.fail("the query process served another snapshot")
        # Packed, so that this process stays small while it spawns passes.
        query["latency_ns"] = array.array("q", query["latency_ns"])
        self.queries.append(result)
        return result

    def gate(self):
        """Untimed passes whose bytes every measured pass must match: the
        traced pass always, and a pass at the partner thread count where the
        workload has one; its pipeline_s goes on the metadata line."""
        self.reference = self.run_pass(traced=True,
                                       requests=CALLS if self.trace else 0)
        self.setup()
        partner = self.table[self.workload]["partner_threads"]
        if partner:
            self.partner = self.run_pass(traced=False, requests=0,
                                         threads=partner)

    def measure(self):
        """Measured repetitions until they have taken --seconds, set-ups
        between them not counted. With --trace 0 a repetition is a pass and
        then a query process on what it published, so pipeline and query
        samples both spread over the whole run; with --trace 1 untraced and
        traced passes alternate."""
        longest = max(p["wall_s"] for p in self.passes)
        measured_s = 0.0
        rep = 0
        while True:
            done = rep >= MIN_REPS and measured_s >= self.seconds
            if done or self.elapsed() + longest > RUN_LIMIT_S:
                break
            traced = self.trace and rep % 2 == 1
            took = self.run_pass(traced=traced,
                                 requests=CALLS if traced else 0)["wall_s"]
            if not self.trace:
                took += self.run_query()["wall_s"]
            if self.setup_wanted():
                self.setup()
            longest = max(longest, took)
            measured_s += took
            rep += 1
        if rep < MIN_REPS:
            raise BenchError(f"only {rep} measured repetitions fit in "
                             f"{RUN_LIMIT_S:.0f} s")
        while len(self.setups) < MIN_SETUPS:
            self.setup()
        if len({(r["row_faults"], r["corpus_digest"])
                for r in self.setups}) != 1:
            self.fail("set-ups of one seed wrote different corpora")

    def check_passes(self):
        """Every pass, traced or not, at either thread count, must have
        ranked the same signals and published the same snapshot bytes."""
        for key in ("ranked_digest", "snapshot_digest"):
            seen = {(p["mode"], p["threads"], p.get(key)) for p in self.passes}
            if len({digest for _, _, digest in seen}) != 1:
                self.fail(f"passes disagree on {key}: {sorted(seen)}")
        traced = [p for p in self.passes if p["mode"] == "traced"]
        if len({json.dumps(p.get("counts"), sort_keys=True)
                for p in traced}) != 1:
            self.fail("traced passes disagree on layer counts")
        if self.passes[0]["threads"] != self.threads:
            self.fail("the pass ran with the wrong thread count")

    def measured(self, mode):
        return [p for p in self.passes[1:] if p.get("ok")
                and p["mode"] == mode and p["threads"] == self.threads]

    def end_to_end(self):
        untraced = self.measured("untraced")
        queries = [q["query"] for q in self.queries]
        latencies = [ns / 1000.0 for q in queries for ns in q["latency_ns"]]
        requests = sum(q["requests"] for q in queries)
        query_s = sum(q["elapsed_s"] for q in queries)
        values = {
            "pipeline_s": statistics.median(p["pipeline_s"] for p in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in self.setups),
            "peak_rss_mb": statistics.median(p["peak_rss_bytes"]
                                             for p in untraced) / MB,
            "snapshot_mb": untraced[0]["snapshot_bytes"] / MB,
            "query_rps": requests / query_s,
            "query_p50_us": quantile(latencies, 0.50),
            "query_p99_us": quantile(latencies, 0.99),
        }
        self.samples = len(latencies)
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in SPEC["end_to_end"]}

    def per_layer(self):
        """Span times and query-call means are medians over the traced
        passes; counts repeat exactly (check_passes) and come from one."""
        traced = [self.reference] + self.measured("traced")
        untraced = self.measured("untraced")
        values = {
            "other_s": statistics.median(p["other_s"] for p in traced),
            "trace_overhead_s":
                statistics.median(p["traced_total_s"] for p in traced)
                - statistics.median(p["pipeline_s"] for p in untraced),
        }
        values.update(traced[0]["counts"])
        for name in traced[0]["layers"]:
            values[name] = statistics.median(p["layers"][name] for p in traced)
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in SPEC["per_layer"]}

    def write_trace(self, info, metrics):
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{self.workload}-seed{self.seed}-trace{self.trace}.json"
        passes = [{"mode": p["mode"], "threads": p["threads"],
                   "pipeline_s": p.get("pipeline_s"),
                   "traced_total_s": p.get("traced_total_s"),
                   "spans": p.get("spans", [])} for p in self.passes]
        path.write_text(json.dumps({"info": info, "metrics": metrics,
                                    "passes": passes}, indent=1))
        return path

    def execute(self):
        self.setup()
        self.gate()
        self.measure()
        self.check_passes()
        metrics = self.per_layer() if self.trace else self.end_to_end()
        info = metadata(self.workload, self.threads)
        partner = self.partner or {}
        info.update({
            "workload": self.workload, "seed": self.seed,
            "trace": self.trace, "run_seconds": round(self.elapsed(), 3),
            "setups": len(self.setups),
            "untraced_passes": len(self.measured("untraced")),
            "traced_passes": 1 + len(self.measured("traced")),
            "row_faults_injected": self.row_faults,
            "input_mb": round(self.input_bytes / MB, 3),
            "ground_truth_recall": self.reference.get("recall"),
            "partner_threads": partner.get("threads"),
            "partner_pipeline_s": partner.get("pipeline_s"),
            "failed_share": self.failed / self.attempted,
            "problems": self.problems,
        })
        if not self.trace:
            info["query_samples"] = self.samples
        info["trace_file"] = str(self.write_trace(info, metrics)
                                 .relative_to(ROOT))
        return info, metrics


def print_table(metrics):
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
        table = bench(["workloads"])
        if args.workload == "all":
            ok = True
            for workload in workloads:
                for trace in (0, 1):
                    info, metrics = Run(table, workload, args.seed,
                                        args.seconds, trace).execute()
                    ok &= info["failed_share"] == 0
                    print(f"{workload} seed={args.seed} trace={trace} "
                          f"failed_share={info['failed_share']} "
                          f"recall={info['ground_truth_recall']}")
                    print_table(metrics)
            return 0 if ok else 1
        run = Run(table, args.workload, args.seed, args.seconds, args.trace)
        info, metrics = run.execute()
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            statistics.StatisticsError) as error:
        log(f"benchmark failed: {error}")
        return 1
    print("# " + json.dumps(info, sort_keys=True))
    print_table(metrics)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
