#!/usr/bin/env python3
"""End-to-end benchmark of the aseq CLI: trace file in, printed results out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the `aseq` CLI from src/ plus perfbench/tool.cc)
into .bench_build/perfbench; later runs rebuild incrementally.

Each run generates its inputs from --seed into a private work directory
under .bench_build/work (removed at exit), computes the reference digest by
an independent path, reads the trace once so every timed run reads it from
the page cache, and then measures for about --seconds seconds:

  --trace 0  one fresh `aseq` process per sample, stdout to a file: process
             wall (spawn to exit), user+sys CPU and ru_maxrss from wait4,
             each followed by a run of the host-speed probe
             (perfbench_calibrate) and by set-up samples (same invocation
             on an empty trace). Wall and CPU time are scaled to the
             reference host speed by the probes before and after the
             sample. Prints the end-to-end metrics as medians.
  --trace 1  rounds of (untraced `aseq` run, traced `perfbench_tool layers
             --mode cli` run, `--mode probe` run). Prints the per-layer
             metrics as medians over rounds.

The number of samples (rounds) is fixed by --seconds and the workload's
nominal sample time in spec.json, not by how fast the program runs, so
every commit is measured with the same number of samples.

Every timed process is checked: exit code 0, result digest equal to the
reference, the event count, and for sharded workloads that sharding engaged.
A run that fails a check counts in `failed`. The last stdout line is the
result JSON; a per-metric median/quartile summary goes to stderr.
Metric names, units and workloads come from BENCHMARK.json; workload inputs,
flags and references from perfbench/spec.json; see perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
ASEQ = os.path.join(BUILD_DIR, "aseq", "cli", "aseq")
TOOL = os.path.join(BUILD_DIR, "perfbench_tool")
CALIBRATE = os.path.join(BUILD_DIR, "perfbench_calibrate")
BINARIES = (ASEQ, TOOL, CALIBRATE)

MIN_SAMPLES = 3        # fewest timed samples (rounds) in a run
SETUP_PER_SAMPLE = 3   # set-up samples after every full-trace sample


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def newest_source_mtime():
    newest = 0.0
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, _, files in os.walk(top):
            for name in files:
                if name.endswith((".cc", ".h", ".txt")):
                    newest = max(newest, os.path.getmtime(
                        os.path.join(dirpath, name)))
    return newest


def build():
    """Configures and builds when a binary is missing or a source is newer."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no aseq source tree (src/) next to perfbench/; run "
                         "from a full checkout of the repository")
    if all(os.path.isfile(b) for b in BINARIES) and min(
            os.path.getmtime(b) for b in BINARIES) > newest_source_mtime():
        return
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "aseq_tool",
              "perfbench_tool", "perfbench_calibrate", "-j", jobs]]
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    tail = f.read()[-4000:]
                raise BenchError("build failed: " + " ".join(cmd) + "\n" + tail)


def check_call(cmd, stdout_path=None):
    with open(stdout_path or os.devnull, "wb") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise BenchError("preparation step failed (%d): %s\n%s" % (
            proc.returncode, " ".join(cmd), proc.stderr.decode()[-2000:]))


def generate_inputs(spec, seed, events, work):
    """Writes the workload's trace (and queries file) into `work`."""
    paths = {"trace": os.path.join(work, "trace.csv"),
             "queries": os.path.join(work, "queries.txt"),
             "empty": os.path.join(work, "empty.csv")}
    program, *args = spec["input"]["command"]
    values = dict(paths, events=events, seed=seed)
    check_call([{"aseq": ASEQ, "perfbench_tool": TOOL}[program]] +
               [a.format(**values) for a in args])
    open(paths["empty"], "w").close()
    return paths


def expand(args, spec, paths, trace):
    values = {"query": spec.get("query", ""), "trace": trace,
              "queries": paths["queries"]}
    return [a.format(**values) for a in args]


RESULT_LINE = re.compile(rb"^t=")
QUERY_LINE = re.compile(rb"^  Q(\d+): (\d+) results, ")


def digest(path, kind):
    """sha256 over the result lines and the number of results they carry."""
    h = hashlib.sha256()
    results = 0
    with open(path, "rb") as f:
        for line in f:
            if kind == "result_lines" and RESULT_LINE.match(line):
                h.update(line)
                results += 1
            elif kind == "query_lines":
                m = QUERY_LINE.match(line)
                if m:
                    h.update(line)
                    results += int(m.group(2))
    return h.hexdigest(), results


def stat_line(path, name):
    pattern = re.compile(rb"^" + name.encode() + rb":\s+(\d+)\s*$")
    with open(path, "rb") as f:
        for line in f:
            m = pattern.match(line)
            if m:
                return int(m.group(1))
    return None


def timed(cmd, stdout_path):
    """Runs cmd to completion; returns (wall_s, cpu_s, maxrss_mb, rc, stderr)."""
    err_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, stderr)


class Checker:
    """Counts attempted and failed timed runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, problem):
        """Records one run; True when it passed its checks."""
        self.attempted += 1
        if problem:
            self.failed += 1
            log("check failed: " + problem)
        return not problem


def cli_problem(spec, out_path, rc, stderr, events, ref):
    """Why an `aseq` run is wrong, or None when it is right."""
    if rc != 0:
        return "exit code %d: %s" % (rc, stderr.strip()[-300:])
    if stat_line(out_path, "events") != events:
        return "events line differs from %d" % events
    if spec["shards"] > 1:
        if "sharding disabled" in stderr:
            return "sharding disabled: " + stderr.strip()[-300:]
        if stat_line(out_path, "shards") != spec["shards"]:
            return "stats do not show shards: %d" % spec["shards"]
    if ref is not None and digest(out_path, spec["digest"])[0] != ref:
        return "result digest differs from the reference"
    return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(samples, units):
    """The median per metric; quartiles and extremes go to stderr."""
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name, [])
        if not values:
            raise BenchError("no correct samples for metric " + name)
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        log("  %-28s median %-14.6g q1 %-14.6g q3 %-14.6g min %-14.6g "
            "max %-14.6g n=%d %s" % (name, med, q1, q3, min(values),
                                     max(values), len(values), unit))
    return metrics


def sample_count(spec, seconds, processes):
    """Samples that fill `seconds` at the workload's nominal sample time,
    each of `processes` full-trace processes."""
    return max(MIN_SAMPLES,
               int(round(seconds / (processes * spec["sample_s"]))))


def calibrate():
    """Seconds the host-speed probe's fixed kernel took."""
    proc = subprocess.run([CALIBRATE], stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise BenchError("perfbench_calibrate exit code %d" % proc.returncode)
    return float(proc.stdout.split()[0])


def run_untraced(spec, cmd, setup_cmd, work, events, ref, seconds,
                 calibration_s, check):
    """End-to-end samples. The host's speed drifts by tens of percent for
    seconds to minutes at a time, so each full sample's wall and CPU time
    are multiplied by calibration_s / (mean probe time just before and
    just after it): the time the sample would have taken on a host whose
    probe takes calibration_s (METRICS.md, "Steadiness")."""
    samples = {"events_per_s": [], "cpu_s": [], "peak_rss_mb": [],
               "setup_s": []}
    unscaled = {"unscaled events_per_s": [], "unscaled cpu_s": [],
                "host scale": []}
    out = os.path.join(work, "out.txt")
    probe_before = calibrate()
    for _ in range(sample_count(spec, seconds, 1)):
        wall, cpu, rss, rc, stderr = timed(cmd, out)
        probe_after = calibrate()
        scale = calibration_s / ((probe_before + probe_after) / 2)
        probe_before = probe_after
        if check.run(cli_problem(spec, out, rc, stderr, events, ref)):
            samples["events_per_s"].append(events / (wall * scale))
            samples["cpu_s"].append(cpu * scale)
            samples["peak_rss_mb"].append(rss)
            unscaled["unscaled events_per_s"].append(events / wall)
            unscaled["unscaled cpu_s"].append(cpu)
            unscaled["host scale"].append(scale)
        for _ in range(SETUP_PER_SAMPLE):
            wall, _, _, rc, stderr = timed(setup_cmd, out)
            if check.run(cli_problem(spec, out, rc, stderr, 0, None)):
                samples["setup_s"].append(wall)
    for name, values in unscaled.items():
        if values:
            log("  %-28s median %-14.6g min %-14.6g max %-14.6g" % (
                name, statistics.median(values), min(values), max(values)))
    return samples


def load_spans(path):
    spans, counts = [], {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            else:
                spans.append(rec)
    return spans, counts


def self_times(spans):
    """Self time per span name: duration minus the union of its children."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, end = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], end), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s["name"]] = out.get(s["name"], 0.0) + (
            s["end_ns"] - s["start_ns"] - covered) / 1e9
    return out


def layer_sample(spans_cli, counts_cli, traced_wall, untraced_wall,
                 spans_probe, counts_probe, num_shards):
    cli = self_times(spans_cli)
    probe = self_times(spans_probe)
    events = counts_cli["events"]
    busy = [float(b) for b in counts_cli["shard_busy_s"].split()] or [0.0]
    run_s = cli["exec.run"]
    roots = {s["name"] for s in spans_cli if s["parent"] == -1}
    layer_self = sum(t for name, t in cli.items() if name not in roots)
    return {
        "query.compile_s": cli["query.compile"],
        "stream.read_s": cli["stream.read"],
        "stream.parse_s": cli["stream.parse"],
        "stream.parse_mb_per_s":
            counts_cli["trace_bytes"] / 1e6 / cli["stream.parse"],
        "stream.bytes_per_input_byte":
            counts_cli["rss_parse_growth_bytes"] / counts_cli["trace_bytes"],
        "stream.free_s": cli["stream.free"],
        "plan.admit_s": probe["plan.admit"],
        "plan.admit_ratio": counts_probe["admitted_records"] / events,
        "engine.batch_s": probe["engine.batch"],
        "engine.ms_per_slide": probe["engine.batch"] * 1e3 / events,
        "engine.peak_objects": counts_probe["engine_peak_objects"],
        "engine.outputs": counts_probe["engine_outputs"],
        "exec.build_s": cli["exec.build"],
        "exec.run_s": run_s,
        "exec.ms_per_slide": counts_cli["exec_ms_per_slide"],
        "exec.overhead_s": run_s - probe["engine.batch"],
        "exec.shard_busy_max_s": max(busy),
        "exec.shard_imbalance": max(busy) / min(busy) if min(busy) > 0 else 1.0,
        "exec.worker_util": sum(busy) / (num_shards * run_s),
        "exec.pub_batches": counts_cli["pub_batches"],
        "exec.ring_full_waits": counts_cli["ring_full_waits"],
        "exec.ring_spins": counts_cli["ring_spins"],
        "emit.format_s": cli["emit.format"],
        "emit.lines": counts_cli["emit_lines"],
        "trace.overhead": traced_wall / untraced_wall,
        "trace.coverage": layer_self / traced_wall,
    }


def run_traced(spec, name, cmd, layer_args, work, events, ref, ref_results,
               seconds, check):
    samples = {}
    out = os.path.join(work, "out.txt")
    spans_path = os.path.join(work, "spans.jsonl")
    for i in range(sample_count(spec, seconds, 3)):
        untraced_wall, _, _, rc, stderr = timed(cmd, out)
        untraced_ok = check.run(cli_problem(spec, out, rc, stderr, events, ref))

        run_id = "%s-%d" % (name, i + 1)
        traced_wall, _, _, rc, stderr = timed(
            [TOOL, "layers", "--mode", "cli", "--spans", spans_path,
             "--run-id", run_id] + layer_args, out)
        problem = "traced run exit code %d: %s" % (rc, stderr[-300:]) if rc else None
        if not problem:
            spans_cli, counts_cli = load_spans(spans_path)
            if digest(out, spec["digest"])[0] != ref:
                problem = "traced run result digest differs from the reference"
            elif counts_cli["num_shards"] != spec["shards"] or counts_cli["fallback"]:
                problem = "traced run did not use %d shard(s): %s" % (
                    spec["shards"], counts_cli["fallback"])
        check.run(problem)

        wall, _, _, rc, stderr = timed(
            [TOOL, "layers", "--mode", "probe", "--spans", spans_path,
             "--run-id", run_id + "-probe"] + layer_args, out)
        probe_problem = "probe exit code %d: %s" % (rc, stderr[-300:]) if rc else None
        if not probe_problem:
            spans_probe, counts_probe = load_spans(spans_path)
            if counts_probe["engine_outputs"] != ref_results:
                probe_problem = "probe engine outputs %d != reference %d" % (
                    counts_probe["engine_outputs"], ref_results)
        check.run(probe_problem)
        if problem or probe_problem or not untraced_ok:
            continue
        for k, v in layer_sample(spans_cli, counts_cli, traced_wall,
                                 untraced_wall, spans_probe, counts_probe,
                                 spec["shards"]).items():
            samples.setdefault(k, []).append(v)
    return samples


def layer_args(spec, paths):
    args = ["--trace", paths["trace"], "--shards", str(spec["shards"])]
    if "query" in spec:
        return args + ["--query", spec["query"]]
    if spec["cli"][-2:] != ["--strategy", "cc"]:
        raise BenchError("perfbench_tool layers traces workloads only with "
                         "--strategy cc")
    return args + ["--queries", paths["queries"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", type=int, default=0,
                        help="override the workload's event count (smoke "
                             "tests only; the benchmark uses the spec's)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "spec.json")) as f:
        spec_all = json.load(f)
    if args.workload not in spec_all["workloads"]:
        raise BenchError("unknown workload %r; known: %s" % (
            args.workload, ", ".join(spec_all["workloads"])))
    spec = spec_all["workloads"][args.workload]
    events = args.events or spec["input"]["events"]
    metric_list = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_list}

    build()
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        paths = generate_inputs(spec, args.seed, events, work)
        ref_out = os.path.join(work, "reference.txt")
        check_call([ASEQ] + expand(spec["reference_cli"], spec, paths,
                                   paths["trace"]), ref_out)
        ref, ref_results = digest(ref_out, spec["digest"])
        if ref_results == 0:
            raise BenchError("the reference run produced no results")
        with open(paths["trace"], "rb") as f:  # page-cache warm-up, untimed
            while f.read(1 << 20):
                pass
        cmd = [ASEQ] + expand(spec["cli"], spec, paths, paths["trace"])
        check = Checker()
        log("%s seed=%d trace=%d events=%d reference results=%d" % (
            args.workload, args.seed, args.trace, events, ref_results))
        if args.trace:
            samples = run_traced(spec, args.workload, cmd,
                                 layer_args(spec, paths), work, events, ref,
                                 ref_results, args.seconds, check)
        else:
            setup_cmd = [ASEQ] + expand(spec["cli"], spec, paths,
                                        paths["empty"])
            samples = run_untraced(spec, cmd, setup_cmd, work, events, ref,
                                   args.seconds,
                                   spec_all["calibration_s"], check)
        metrics = summarize(samples, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log("attempted %d, failed %d" % (check.attempted, check.failed))
    print(json.dumps({"correct": check.failed == 0,
                      "attempted": check.attempted,
                      "failed": check.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError) as e:
        log("perfbench: error: %s" % e)
        sys.exit(1)
