#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark on tiny inputs.

    python3 perfbench/tests/smoke.py

Run from the repository root (the first run builds, like run.py). For every
workload in BENCHMARK.json it runs perfbench/run.py with a few thousand
events, untraced and traced, and checks that the result line has exactly
the result format's keys, that no run failed its correctness check (exit code,
result digest against the reference, sharding engaged), and that every
named metric is reported with its unit. It also checks that the digest
catches a changed result line and that a directory holding only
BENCHMARK.json and perfbench/ fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

EVENTS = 5000
failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what, file=sys.stderr)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1", "--trace",
         str(trace), "--events", str(EVENTS)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)


def check_result(workload, trace, metric_list, proc):
    tag = "%s --trace %d" % (workload, trace)
    expect(proc.returncode == 0, tag + ": exit code %d: %s" % (
        proc.returncode, proc.stderr.decode()[-1000:]))
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        expect(False, tag + ": no result line")
        return
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           tag + ": result keys " + ",".join(sorted(result)))
    expect(result["correct"] is True and result["failed"] == 0,
           tag + ": failed runs: " + proc.stderr.decode()[-1000:])
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           tag + ": attempted %r" % result["attempted"])
    want = {m["name"]: m["unit"] for m in metric_list}
    got = result["metrics"]
    expect(sorted(got) == sorted(want), tag + ": metric names differ")
    for name, unit in want.items():
        m = got.get(name, {})
        expect(m.get("unit") == unit, tag + ": %s unit %r" % (name, m.get("unit")))
        expect(isinstance(m.get("value"), (int, float)),
               tag + ": %s value %r" % (name, m.get("value")))
        if trace == 0:
            expect(m.get("value", 0) > 0, tag + ": %s is not positive" % name)


def check_digest():
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
        a, b = os.path.join(d, "a.txt"), os.path.join(d, "b.txt")
        with open(a, "w") as f:
            f.write("t=1 [3] -> 2\nevents:        2\nt=5 [3] -> 1\n")
        with open(b, "w") as f:
            f.write("t=1 [3] -> 2\nevents:        2\nt=5 [3] -> 0\n")
        da, db = run.digest(a, "result_lines"), run.digest(b, "result_lines")
        expect(da[1] == 2 and db[1] == 2, "digest counts result lines")
        expect(da[0] != db[0], "digest catches a changed result line")
        with open(a, "w") as f:
            f.write("  Q1: 4 results, last=2  — q\n  Q2: 3 results, last=1  — r\n")
        expect(run.digest(a, "query_lines")[1] == 7,
               "query-line digest sums per-query result counts")


def check_bare_directory(bench):
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(d, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(d, bench["workloads"][0]["name"], 0)
        expect(proc.returncode != 0, "bare directory: exit code 0")
        expect(not proc.stdout.strip(), "bare directory: printed a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, metric_list in ((0, bench["end_to_end"]),
                                   (1, bench["per_layer"])):
            check_result(w["name"], trace, metric_list,
                         run_bench(ROOT, w["name"], trace))
    check_digest()
    check_bare_directory(bench)
    print("smoke: %s (%d failures)" % ("FAIL" if failures else "PASS",
                                       len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
