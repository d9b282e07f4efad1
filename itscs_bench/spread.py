#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the root of a checkout:

    python3 itscs_bench/spread.py --runs 10 --seconds 40 [--first-seed 1]
                                  [--workload NAME ...] [--trace 0|1]

Runs `itscs_bench/run.py` once per seed (seeds first-seed .. first-seed +
runs - 1) for each workload, one run at a time, and prints for every metric
its median and its spread: the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
beside the metric's bound from BENCHMARK.json. Raw result lines are
appended to .bench_build/spread.jsonl. Exits 1 when a run fails or a spread
other than setup_s's exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--workload", action="append",
                        default=None, help="repeatable; default all")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    log_path = os.path.join(root, ".bench_build", "spread.jsonl")
    ok = True
    for workload in workloads:
        rows = []
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = [sys.executable, os.path.join(root, "itscs_bench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
            done = subprocess.run(cmd, cwd=root, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write("%s seed %d failed (exit %d)\n%s\n" %
                                 (workload, seed, done.returncode,
                                  done.stderr[-2000:]))
                ok = False
                continue
            row = json.loads(lines[-1])
            rows.append(row)
            with open(log_path, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": row}) + "\n")
            if not row["correct"]:
                ok = False
        if len(rows) < 2:
            continue
        print("%s (%d runs)" % (workload, len(rows)))
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  (above a third of the bound)"
            print("  %-28s median %-12.6g spread %.3f bound %s%s" %
                  (name, med, spread, bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
