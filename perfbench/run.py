#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (the simulator libraries under src/ plus the perfbench
binary) into .bench_build/perfbench, runs the binary, and prints its
report.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

A traced run also leaves a Chrome/Perfetto trace in
.bench_build/perfbench-traces/: the simulator's PRIME_SPAN events
(pid 1) merged with the benchmark's own spans around public calls
(pid 2, with parent and request id).  Per-layer self times are computed
here from that trace: a span's duration minus the part covered by its
child spans on the same thread.

Exits non-zero, without a result line, when the build or the run fails;
exits non-zero after the result line when an output check failed.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
RUN_TIMEOUT_S = 170

# Per-layer metrics taken from the traced window's spans:
# metric -> (span name, statistic).
SPAN_METRICS = {
    "cmd.fetch_us": ("cmd.fetch", "self_us"),
    "cmd.load_us": ("cmd.load", "self_us"),
    "cmd.store_us": ("cmd.store", "self_us"),
    "cmd.commit_us": ("cmd.commit", "self_us"),
    "memory.write_data_us": ("mem.write_data", "self_us"),
    "memory.write_data_calls_per_image": ("mem.write_data", "per_image"),
    "reram.mvm_us": ("ff.compute", "self_us"),
    "reram.fanout_us": ("ff.compute_fanout", "self_us"),
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; logs stay in BUILD."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def self_times(events):
    """Per span name: [count, total self time in us] over "X" events.

    Events are grouped by thread; on one thread spans nest, so a span's
    direct children are the spans that start inside it before it ends.
    """
    by_thread = collections.defaultdict(list)
    for e in events:
        by_thread[e["tid"]].append(e)
    stats = collections.defaultdict(lambda: [0, 0.0])
    for lane in by_thread.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_ts, name, dur, covered]
        def close(entry):
            s = stats[entry[1]]
            s[0] += 1
            s[1] += max(0.0, entry[2] - entry[3])
        for e in lane:
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][3] += e["dur"]
            stack.append([e["ts"] + e["dur"], e["name"], e["dur"], 0.0])
        while stack:
            close(stack.pop())
    return stats


def ledger(prefix, traced_images):
    """Span-derived per-layer metrics; writes the merged trace."""
    with open(prefix + ".program.json") as f:
        program = json.load(f)
    with open(prefix + ".bench.json") as f:
        bench = json.load(f)
    window = next(s for s in bench if s["name"] == "bench.traced_ops")
    lo, hi = window["start_ns"] / 1e3, window["end_ns"] / 1e3
    spans = [e for e in program["traceEvents"]
             if e.get("ph") == "X" and lo <= e["ts"] <= hi]
    stats = self_times(spans)
    metrics = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        count, self_us = stats.get(span, (0, 0.0))
        if stat == "self_us":
            value = self_us / count if count else 0.0
            metrics[metric] = {"value": value, "unit": "us"}
        else:
            metrics[metric] = {"value": count / max(traced_images, 1),
                               "unit": "count"}

    # One trace file: simulator lanes (pid 1), benchmark spans (pid 2),
    # request lifetimes as async events keyed by request id.
    events = program["traceEvents"]
    for i, s in enumerate(bench):
        common = {"name": s["name"], "cat": "bench", "pid": 2,
                  "ts": s["start_ns"] / 1e3,
                  "args": {"span": i, "parent": s["parent"],
                           "request": s["request"]}}
        if s["thread"] < 0:
            events.append(dict(common, ph="b", id=s["request"], tid=0))
            events.append(dict(common, ph="e", id=s["request"], tid=0,
                               ts=s["end_ns"] / 1e3))
        else:
            events.append(dict(common, ph="X", tid=s["thread"],
                               dur=(s["end_ns"] - s["start_ns"]) / 1e3))
    with open(prefix + ".trace.json", "w") as f:
        json.dump(program, f)
    os.remove(prefix + ".program.json")
    os.remove(prefix + ".bench.json")
    return metrics


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = expected_metrics(args.trace)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    prefix = os.path.join(TRACES, "%s-seed%d" % (args.workload, args.seed))
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", prefix]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("no result from the perfbench binary (exit %d)"
             % proc.returncode)
    print("\n".join(lines[:-1]))

    metrics = report["metrics"]
    if args.trace:
        for name, m in ledger(prefix, report["traced_images"]).items():
            metrics[name] = m
            print("  %-28s %.6g %s (traced window)"
                  % (name, m["value"], m["unit"]))
        print("  trace: " + os.path.relpath(prefix + ".trace.json", ROOT))
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("metrics missing from the report: " + ", ".join(missing))

    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: metrics[n] for n in names},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
