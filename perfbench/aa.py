#!/usr/bin/env python3
"""A/A steadiness check of the benchmark: two interleaved sets of seeded runs.

    python3 perfbench/aa.py [--runs 10] [--seconds S]

Runs perfbench/run.py --trace 0 `--runs` times per set on every workload in
BENCHMARK.json. Set 0 uses seeds 1..runs and set 1 seeds 1001..1000+runs.
Each round runs set 0 and then set 1 over the workloads in turn, so slow
host phases hit every workload and both sets evenly.

For every end-to-end metric of every workload it prints each set's median
and quartiles and the spread (q3 - q1) / median, and checks them against
the bounds in BENCHMARK.json:

- each set's spread stays within the metric's bound. setup_s is exempt,
  as it is in the benchmark contract: its spread is printed and flagged,
  but does not fail the check;
- the two sets' medians differ by no more than the bound, in either
  direction: |median1 - median0| / median0 <= bound.

Exits 1 if a check fails or a run reports failed checks. Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETS = 2
SEED_OFFSET = 1000   # set s uses seeds 1 + SEED_OFFSET * s, ...
SPREAD_EXEMPT = {"setup_s"}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run.py failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    # results[set][workload] = list of run results
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for i in range(args.runs):
        for s in range(SETS):
            for w in workloads:
                seed = 1 + i + SEED_OFFSET * s
                r = run_once(w, seed, args.seconds)
                results[s][w].append(r)
                print("set %d run %d %-22s seed %-5d failed %d  %s" % (
                    s, i, w, seed, r["failed"], " ".join(
                        "%s=%.6g" % (k, v["value"])
                        for k, v in r["metrics"].items())),
                    file=sys.stderr, flush=True)

    ok = True
    print("%-22s %-14s %-5s %-3s %12s %12s %12s %8s %8s %s" % (
        "workload", "metric", "unit", "set", "q1", "median", "q3", "spread",
        "bound", "check"))
    for w in workloads:
        failed = sum(r["failed"] for s in results for r in s[w])
        if failed:
            ok = False
            print("%s: %d failed runs" % (w, failed))
        for m in bench["end_to_end"]:
            name, unit, bound = m["name"], m["unit"], m["bound"]
            meds = []
            for s in range(SETS):
                q1, med, q3, sp = spread(
                    [r["metrics"][name]["value"] for r in results[s][w]])
                meds.append(med)
                verdict = "ok"
                if sp > bound:
                    if name in SPREAD_EXEMPT:
                        verdict = "spread>bound (exempt)"
                    else:
                        verdict, ok = "SPREAD>BOUND", False
                elif sp > bound / 3:
                    verdict = "spread>bound/3"
                print("%-22s %-14s %-5s %-3d %12.6g %12.6g %12.6g %8.4f %8.4f "
                      "%s" % (w, name, unit, s, q1, med, q3, sp, bound,
                              verdict))
            diff = abs(meds[1] - meds[0]) / meds[0]
            agree = diff <= bound
            ok = ok and agree
            print("%-22s %-14s A/A medians differ by %.4f (bound %.2f) %s" % (
                w, name, diff, bound, "ok" if agree else "DIFF>BOUND"))
    print("A/A result: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
