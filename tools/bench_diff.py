#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Two modes.

Paired repository-benchmark runs (bench/e2e, declared in BENCHMARK.json):
    for i in 1 .. 10, alternating which side runs first:
        parent/bench/e2e/run.sh --all --seed=1985 >> parent.jsonl
        change/bench/e2e/run.sh --all --seed=1985 >> change.jsonl
    python3 tools/bench_diff.py --pairs parent.jsonl change.jsonl \
        [--claim cold-read:read_qps] [--benchmark BENCHMARK.json]

Each file holds run.sh stdout: per workload, a diagnostics line naming
the workload and then a result line {"correct", "failed", "metrics"}.
The i-th result of a workload in one file pairs with the i-th in the
other. Per workload and end-to-end metric it prints each side's median
and quartiles, the change's win fraction (ties count for neither side)
and a verdict:
    gain         the change wins at least 9/10 of the pairs and the
                 medians differ, in its favour, by more than the
                 parent's interquartile range;
    within bound the change's median is no worse than the parent's by
                 more than the metric's BENCHMARK.json bound;
    regression   it is worse by more than the bound;
    unresolved   the parent's own spread (IQR / median) exceeds the
                 bound, so neither of the last two can be told, and not
                 every change run beats every parent run.
Exits 1 when a run was wrong or failed requests, a metric regressed, or
a --claim'ed workload:metric is not a gain; else 0.

Two `search_micro --json` dumps:
    ./build/bench/search_micro --json > before.json   # e.g. on the base rev
    ./build/bench/search_micro --json > after.json
    python3 tools/bench_diff.py before.json after.json [--min-speedup 1.5]

Prints a per-metric table (before, after, ratio) and exits nonzero when
--min-speedup is given and after's active-kernel window throughput does
not beat before's scalar throughput by at least that factor — the
acceptance gate recorded in EXPERIMENTS.md.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json"
)

# Throughput metrics: higher is better. Costs: lower is better.
HIGHER_IS_BETTER = [
    "scalar_window_qps",
    "active_window_qps",
    "batch_window_qps",
]
LOWER_IS_BETTER = [
    "decode_ns_per_node",
]


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_runs(path):
    """Result lines of a pictbench output file, grouped by workload."""
    runs = {}
    workload = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "metrics" not in obj:
                workload = obj.get("workload", workload)
                continue
            name = obj.get("workload", workload)
            if name is None:
                raise ValueError(f"{path}: result line before any workload")
            runs.setdefault(name, []).append(obj)
    return runs


def quartiles(values):
    """(q1, median, q3); a single run is its own spread of zero."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, bound, lower_is_better):
    """(wins, verdict) for one workload x metric under the paired rule."""
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - p_med)
    if wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        return wins, "gain"
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return wins, "within bound"  # every change run beats every parent run
    scale = abs(p_med) if p_med else 1.0
    if (p_q3 - p_q1) / scale > bound:
        return wins, "unresolved"
    return wins, "regression" if -gain / scale > bound else "within bound"


def pairs_main(args):
    with open(args.benchmark, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    parent_runs = load_runs(args.pairs[0])
    change_runs = load_runs(args.pairs[1])
    claims = set(args.claim)
    status = 0

    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        n = min(len(parent), len(change))
        bad = [
            r for r in parent + change
            if r.get("correct") is not True or r.get("failed", 0) != 0
        ]
        print(f"{workload}: {n} pairs ({len(parent)} parent runs, "
              f"{len(change)} change runs), {len(bad)} wrong or failing")
        if bad:
            status = 1
        if n == 0:
            continue
        print(f"  {'metric':<20} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'wins':>6} {'ratio':>6}  verdict")
        for metric in metrics:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent[:n]
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[:n]
                 if name in r["metrics"]]
            if len(p) != n or len(c) != n:
                continue
            lower = metric["better"] == "lower"
            wins, result = verdict(p, c, metric["bound"], lower)
            if result == "regression":
                status = 1
            key = f"{workload}:{name}"
            if key in claims:
                claims.discard(key)
                if result != "gain":
                    status = 1
                result += " (claimed)"
            pq, cq = quartiles(p), quartiles(c)
            ratio = cq[1] / pq[1] if pq[1] else float("inf")
            print(f"  {name:<20} "
                  f"{'/'.join(f'{v:.5g}' for v in pq):>30} "
                  f"{'/'.join(f'{v:.5g}' for v in cq):>30} "
                  f"{wins:>3}/{n:<2} {ratio:>5.2f}x  {result}")
    for key in sorted(claims):
        print(f"claim {key}: no paired runs", file=sys.stderr)
        status = 1
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("before", nargs="?")
    parser.add_argument("after", nargs="?")
    parser.add_argument(
        "--pairs",
        nargs=2,
        metavar=("PARENT.jsonl", "CHANGE.jsonl"),
        help="compare paired repository-benchmark runs",
    )
    parser.add_argument(
        "--claim",
        action="append",
        default=[],
        metavar="WORKLOAD:METRIC",
        help="with --pairs: fail unless this metric is a gain",
    )
    parser.add_argument(
        "--benchmark",
        default=DEFAULT_BENCHMARK,
        help="with --pairs: the BENCHMARK.json holding the metric bounds",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless after.active_window_qps >= "
        "min_speedup * before.scalar_window_qps",
    )
    args = parser.parse_args()
    if args.pairs:
        return pairs_main(args)
    if args.before is None or args.after is None:
        parser.error("give before.json and after.json, or --pairs")

    before = load(args.before)
    after = load(args.after)

    for key in ("objects", "windows", "batch_size"):
        if before.get(key) != after.get(key):
            print(
                f"warning: {key} differs ({before.get(key)} vs "
                f"{after.get(key)}); ratios are not apples to apples",
                file=sys.stderr,
            )

    print(f"kernel: {before.get('kernel')} -> {after.get('kernel')}")
    print(f"{'metric':<28} {'before':>14} {'after':>14} {'ratio':>8}")
    for key in HIGHER_IS_BETTER + LOWER_IS_BETTER:
        b, a = before.get(key), after.get(key)
        if b is None or a is None:
            continue
        ratio = a / b if b else float("inf")
        arrow = ""
        if key in LOWER_IS_BETTER:
            arrow = " (lower is better)"
        print(f"{key:<28} {b:>14.1f} {a:>14.1f} {ratio:>7.2f}x{arrow}")

    if args.min_speedup is not None:
        base = before.get("scalar_window_qps")
        new = after.get("active_window_qps")
        if not base or not new:
            print("missing throughput fields for the gate", file=sys.stderr)
            return 2
        speedup = new / base
        verdict = "PASS" if speedup >= args.min_speedup else "FAIL"
        print(
            f"gate: active({new:.1f}) / scalar-before({base:.1f}) = "
            f"{speedup:.2f}x vs required {args.min_speedup:.2f}x -> {verdict}"
        )
        return 0 if speedup >= args.min_speedup else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
