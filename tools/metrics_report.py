#!/usr/bin/env python3
"""Summarize a PRIME metrics JSONL time-series.

Reads the file produced by `prime_cli run --metrics-out <file>` (or any
MetricsRegistry::writeJsonl output): one JSON object per line of the
form {"ts_ns": N, "metrics": {"name": value, ...}}.

Prints a per-stage pipeline utilization table (decoded from the
pipeline.stageN.state gauge: 0=idle 1=busy 2=stall-up 3=stall-down
4=done), a serving-engine table (the serving.queue.depth and
serving.shed_rate gauges plus the rates of the
serving.accepted/rejected/completed/batches counters), and a general
min/mean/max/last summary of every other series.  Exits non-zero on
malformed input, so CI can use it as a JSONL validator:

    python3 tools/metrics_report.py BENCH_metrics.jsonl
    python3 tools/metrics_report.py --require pipeline metrics.jsonl
    python3 tools/metrics_report.py --require serving. serve.jsonl
"""

import argparse
import json
import re
import sys

# Mirrors the StageState enum in src/prime/pipeline.cc.
STATE_NAMES = {0: "idle", 1: "busy", 2: "stall-up", 3: "stall-down",
               4: "done"}

STAGE_STATE_RE = re.compile(r"^pipeline\.stage(\d+)\.state$")
SERVING_RE = re.compile(r"^serving\.")

# Monotone admission counters reported as rates in the serving table.
SERVING_COUNTERS = ("serving.accepted", "serving.rejected",
                    "serving.completed", "serving.batches")


def parse_jsonl(path):
    """Return the list of snapshots; raise ValueError on bad lines."""
    snapshots = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: bad JSON: {e}")
            if not isinstance(obj, dict) or "ts_ns" not in obj \
                    or "metrics" not in obj:
                raise ValueError(
                    f"{path}:{lineno}: expected "
                    '{"ts_ns":N,"metrics":{...}}')
            if not isinstance(obj["metrics"], dict):
                raise ValueError(f"{path}:{lineno}: metrics not a dict")
            snapshots.append(obj)
    return snapshots


def series(snapshots):
    """name -> list of (ts_ns, value) in snapshot order."""
    out = {}
    for snap in snapshots:
        ts = snap["ts_ns"]
        for name, value in snap["metrics"].items():
            out.setdefault(name, []).append((ts, value))
    return out


def stage_table(all_series):
    """Per-stage sampled-state shares from pipeline.stageN.state."""
    stages = {}
    for name, points in all_series.items():
        m = STAGE_STATE_RE.match(name)
        if m:
            stages[int(m.group(1))] = points
    if not stages:
        return False
    print("pipeline stage utilization (share of sampled states):")
    header = ["stage", "samples"] + list(STATE_NAMES.values()) + \
        ["items"]
    print("  " + "  ".join(f"{h:>10}" for h in header))
    for stage in sorted(stages):
        points = stages[stage]
        counts = {s: 0 for s in STATE_NAMES}
        for _, value in points:
            counts[int(value)] = counts.get(int(value), 0) + 1
        n = len(points)
        items = all_series.get(f"pipeline.stage{stage}.items")
        last_items = int(items[-1][1]) if items else 0
        row = [str(stage), str(n)]
        row += [f"{100.0 * counts.get(s, 0) / n:.1f}%"
                for s in STATE_NAMES]
        row += [str(last_items)]
        print("  " + "  ".join(f"{c:>10}" for c in row))
    return True


def serving_table(all_series, span_ns):
    """Serving-engine gauges and admission-counter rates."""
    serving = {name: points for name, points in all_series.items()
               if SERVING_RE.match(name)}
    if not serving:
        return False
    span_s = span_ns / 1e9 if span_ns > 0 else 0.0
    print("serving engine (serving.* series):")
    gauges = [name for name in sorted(serving)
              if name not in SERVING_COUNTERS]
    if gauges:
        print("  " + f"{'gauge':<28}" + "  ".join(
            f"{h:>8}" for h in ["samples", "min", "mean", "max",
                                "last"]))
        for name in gauges:
            vals = [v for _, v in serving[name]]
            row = [str(len(vals)), f"{min(vals):.0f}",
                   f"{sum(vals) / len(vals):.2f}", f"{max(vals):.0f}",
                   f"{vals[-1]:.0f}"]
            print("  " + f"{name:<28}" +
                  "  ".join(f"{c:>8}" for c in row))
    counters = [name for name in SERVING_COUNTERS if name in serving]
    if counters:
        print("  " + f"{'counter':<28}" + "  ".join(
            f"{h:>12}" for h in ["total", "rate/s"]))
        for name in counters:
            vals = [v for _, v in serving[name]]
            rate = (vals[-1] - vals[0]) / span_s if span_s > 0 else 0.0
            print("  " + f"{name:<28}" +
                  f"{vals[-1]:>12.0f}" + f"{rate:>12.1f}")
    return True


def summary_table(all_series, skip):
    rows = []
    for name in sorted(all_series):
        if STAGE_STATE_RE.match(name) or SERVING_RE.match(name):
            continue
        vals = [v for _, v in all_series[name]]
        rows.append((name, len(vals), min(vals),
                     sum(vals) / len(vals), max(vals), vals[-1]))
    if not rows:
        return
    print("series summary:")
    print(f"  {'name':<32} {'samples':>8} {'min':>12} {'mean':>12} "
          f"{'max':>12} {'last':>12}")
    shown = rows if not skip else rows[:skip]
    for name, n, vmin, vmean, vmax, vlast in shown:
        print(f"  {name:<32} {n:>8} {vmin:>12.1f} {vmean:>12.1f} "
              f"{vmax:>12.1f} {vlast:>12.1f}")
    if skip and len(rows) > skip:
        print(f"  ... and {len(rows) - skip} more series")


def main():
    ap = argparse.ArgumentParser(
        description="Summarize a PRIME metrics JSONL time-series.")
    ap.add_argument("jsonl", help="metrics JSONL file (--metrics-out)")
    ap.add_argument("--require", action="append", default=[],
                    help="fail unless a series name starts with this "
                         "prefix (repeatable; CI smoke uses "
                         "--require pipeline)")
    ap.add_argument("--max-series", type=int, default=0,
                    help="cap the general summary table (0 = all)")
    args = ap.parse_args()

    try:
        snapshots = parse_jsonl(args.jsonl)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not snapshots:
        print(f"error: {args.jsonl}: no snapshots", file=sys.stderr)
        return 1

    all_series = series(snapshots)
    span_ns = snapshots[-1]["ts_ns"] - snapshots[0]["ts_ns"]
    print(f"{args.jsonl}: {len(snapshots)} snapshot(s), "
          f"{len(all_series)} series, {span_ns / 1e6:.2f} ms span")

    for prefix in args.require:
        if not any(name.startswith(prefix) for name in all_series):
            print(f"error: no series starting with '{prefix}'",
                  file=sys.stderr)
            return 1

    print()
    if stage_table(all_series):
        print()
    if serving_table(all_series, span_ns):
        print()
    summary_table(all_series, args.max_series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
