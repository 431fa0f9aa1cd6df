#!/usr/bin/env python3
"""Validates the telemetry artifacts an aseq run emits (docs/internals.md §17).

Usage:
    scripts/check_metrics.py METRICS.jsonl [--trace TRACE.json]
        [--stats STATS.json] [--require-event NAME ...] [--shards N]

Checks, in order:

  * every metrics line parses as a JSON object with a known "type"
    (header / shard / coord / utilization);
  * the first line is the header and agrees with --shards when given;
  * per-shard and coordinator cumulative counters are monotonic across
    intervals (the emitter snapshots grow-only cells, so a decrease means
    a torn read or a broken snapshot);
  * histogram summaries are internally ordered (p50 <= p95 <= p99 <= max,
    count 0 iff all quantiles 0);
  * the final utilization line carries one busy-seconds entry per shard;
  * --trace: the file is a valid chrome://tracing JSON array containing
    thread-name metadata, at least one complete span, and every
    --require-event name among its event names;
  * --stats: the one-shot stats dump parses and echoes the shard count.

Exits 0 silently-ish on success (one summary line), 1 with a diagnostic on
the first failure — cheap enough to run in the CI perf-smoke job after the
telemetry smoke run.
"""

import argparse
import json
import sys

SHARD_COUNTERS = ("ops", "events", "outputs", "items", "parks", "busy_ns",
                  "park_ns")
COORD_COUNTERS = ("batches", "events", "publications", "ring_full_waits",
                  "barriers", "checkpoints")
SHARD_HISTOGRAMS = ("op_service_ns", "park_wait_ns", "trigger_latency_ns")
COORD_HISTOGRAMS = ("admit_ns", "barrier_ns", "ring_occupancy")
HIST_FIELDS = ("count", "mean", "p50", "p95", "p99", "max")


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_histogram(where, name, h):
    if not isinstance(h, dict):
        fail(f"{where}: {name} is not an object")
    for f in HIST_FIELDS:
        if f not in h:
            fail(f"{where}: {name} missing '{f}'")
    if not h["p50"] <= h["p95"] <= h["p99"] <= h["max"]:
        fail(f"{where}: {name} quantiles out of order: {h}")
    if h["count"] == 0 and (h["max"] != 0 or h["p99"] != 0):
        fail(f"{where}: {name} empty but nonzero quantiles: {h}")


def check_metrics(path, shards):
    lines = []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not JSON ({e})")
            if not isinstance(obj, dict) or "type" not in obj:
                fail(f"{path}:{lineno}: no 'type' field")
            lines.append((lineno, obj))
    if not lines:
        fail(f"{path}: empty")
    first = lines[0][1]
    if first["type"] != "header":
        fail(f"{path}: first line is '{first['type']}', expected header")
    for field in ("version", "shards", "every_ms", "label"):
        if field not in first:
            fail(f"{path}: header missing '{field}'")
    if shards is not None and first["shards"] != shards:
        fail(f"{path}: header shards {first['shards']} != expected {shards}")
    n_shards = first["shards"]

    last_shard = {}  # shard -> counters
    last_coord = None
    utilization = None
    seen = {"shard": 0, "coord": 0}
    for lineno, obj in lines[1:]:
        where = f"{path}:{lineno}"
        t = obj["type"]
        if t == "shard":
            seen["shard"] += 1
            s = obj.get("shard")
            if not isinstance(s, int) or not 0 <= s < n_shards:
                fail(f"{where}: bad shard index {s!r}")
            prev = last_shard.get(s)
            for c in SHARD_COUNTERS:
                if c not in obj:
                    fail(f"{where}: shard line missing '{c}'")
                if prev is not None and obj[c] < prev[c]:
                    fail(f"{where}: shard {s} counter '{c}' went backwards "
                         f"({prev[c]} -> {obj[c]})")
            for h in SHARD_HISTOGRAMS:
                check_histogram(where, h, obj.get(h))
            last_shard[s] = obj
        elif t == "coord":
            seen["coord"] += 1
            for c in COORD_COUNTERS:
                if c not in obj:
                    fail(f"{where}: coord line missing '{c}'")
                if last_coord is not None and obj[c] < last_coord[c]:
                    fail(f"{where}: coord counter '{c}' went backwards "
                         f"({last_coord[c]} -> {obj[c]})")
            for h in COORD_HISTOGRAMS:
                check_histogram(where, h, obj.get(h))
            last_coord = obj
        elif t == "utilization":
            utilization = (where, obj)
        elif t == "header":
            fail(f"{where}: duplicate header")
        else:
            fail(f"{where}: unknown type '{t}'")
    if seen["shard"] == 0 or seen["coord"] == 0:
        fail(f"{path}: no shard/coord interval lines ({seen})")
    if utilization is None:
        fail(f"{path}: no final utilization line")
    where, obj = utilization
    busy = obj.get("data", {}).get("busy_seconds")
    if not isinstance(busy, list) or len(busy) != n_shards:
        fail(f"{where}: utilization busy_seconds is not a list of "
             f"{n_shards} entries: {busy!r}")
    if last_coord is None or last_coord["events"] == 0:
        fail(f"{path}: coordinator admitted zero events")
    if all(last_shard[s]["ops"] == 0 for s in last_shard):
        fail(f"{path}: every shard executed zero ops")
    return n_shards, seen


def check_trace(path, required):
    with open(path) as f:
        try:
            events = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not a JSON array ({e})")
    if not isinstance(events, list) or not events:
        fail(f"{path}: empty trace")
    names = set()
    spans = 0
    metadata = 0
    for e in events:
        ph = e.get("ph")
        if ph == "M":
            metadata += 1
            continue
        names.add(e.get("name"))
        if ph == "X":
            if e.get("dur", -1) < 0 or e.get("ts", -1) < 0:
                fail(f"{path}: span with bad ts/dur: {e}")
            spans += 1
        elif ph == "i":
            if e.get("ts", -1) < 0:
                fail(f"{path}: instant with bad ts: {e}")
        else:
            fail(f"{path}: unexpected phase {ph!r} in {e}")
    if metadata == 0:
        fail(f"{path}: no thread-name metadata events")
    if spans == 0:
        fail(f"{path}: no complete spans")
    for name in required:
        if name not in names:
            fail(f"{path}: required event '{name}' absent "
                 f"(saw: {sorted(n for n in names if n)})")
    return len(events), sorted(n for n in names if n)


def check_stats(path, shards):
    with open(path) as f:
        try:
            stats = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not JSON ({e})")
    for field in ("engine", "shards", "queries", "elapsed_ms"):
        if field not in stats:
            fail(f"{path}: stats missing '{field}'")
    if shards is not None and stats["shards"] != shards:
        fail(f"{path}: stats shards {stats['shards']} != expected {shards}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("metrics", help="metrics JSONL file (--metrics-out)")
    ap.add_argument("--trace", help="chrome://tracing JSON file (--trace-out)")
    ap.add_argument("--stats", help="one-shot stats JSON file (--stats-json)")
    ap.add_argument("--shards", type=int, help="expected shard count")
    ap.add_argument("--require-event", action="append", default=[],
                    metavar="NAME",
                    help="trace event name that must be present (repeatable)")
    args = ap.parse_args()

    n_shards, seen = check_metrics(args.metrics, args.shards)
    summary = (f"{args.metrics}: ok ({n_shards} shards, "
               f"{seen['shard']} shard lines, {seen['coord']} coord lines)")
    if args.trace:
        count, names = check_trace(args.trace, args.require_event)
        summary += f"; {args.trace}: ok ({count} events: {', '.join(names)})"
    if args.stats:
        check_stats(args.stats, args.shards)
        summary += f"; {args.stats}: ok"
    print(f"check_metrics: {summary}")


if __name__ == "__main__":
    main()
