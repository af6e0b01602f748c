#!/usr/bin/env python3
"""Noise calibration for the repository benchmark.

Runs every workload RUNS times back to back through bench/e2e/run.sh, one
seed per run (1..RUNS unless --first-seed moves them), and reports for
each metric its median, quartiles (statistics.quantiles, n=4), the
interquartile spread (Q3 - Q1) / median and the max relative spread
(max - min) / median. The report goes to stdout and, as JSON, to
.bench_build/calibration.json (or --out).

With --write it also sets each end-to-end metric's bound in
BENCHMARK.json from the measured spread: three times the worst
interquartile spread over the workloads, rounded up to a whole percent,
at least 5% (1% for a metric that read the same on every run) and at
most 25%, the largest bound BENCHMARK.json may carry. A metric that
hits the cap is reported: its spread is more than a third of its bound.
setup_s always keeps the largest bound. Per-layer metrics (--trace) have
no bounds and are only reported.

  python3 bench/e2e/calibrate.py [--runs 5] [--seconds S] [--trace]
                                 [--workload NAME ...] [--write]
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"

CAP = 0.25
FLOOR = 0.05
EXACT_FLOOR = 0.01


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", str(HERE / "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) if median else 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_spread": (q3 - q1) / scale,
        "max_spread": (max(values) - min(values)) / scale,
        "values": values,
    }


def main():
    config = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload", action="append",
                        default=None, help="repeatable; default: all")
    parser.add_argument("--write", action="store_true",
                        help="update the end-to-end bounds in BENCHMARK.json")
    parser.add_argument("--out", default=str(ROOT / ".bench_build" /
                                             "calibration.json"))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to measure a spread")
    workloads = args.workload or [w["name"] for w in config["workloads"]]

    report = {}
    print(f"{'workload':<11} {'metric':<32} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr%':>6} {'max%':>6}", flush=True)
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        report[workload] = {name: summarize([r[name] for r in runs])
                            for name in runs[0]}
        for name, s in report[workload].items():
            print(f"{workload:<11} {name:<32} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{100 * s['iqr_spread']:>6.2f} "
                  f"{100 * s['max_spread']:>6.2f}", flush=True)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")

    if args.write and not args.trace:
        for metric in config["end_to_end"]:
            name = metric["name"]
            if name == "setup_s":
                metric["bound"] = CAP
                continue
            worst = max(report[w][name]["iqr_spread"] for w in report)
            exact = all(report[w][name]["max_spread"] == 0 for w in report)
            bound = math.ceil(3 * worst * 100) / 100
            metric["bound"] = min(CAP, max(EXACT_FLOOR if exact else FLOOR,
                                           bound))
            if 3 * worst > CAP:
                print(f"warning: {name} spread {100 * worst:.1f}% is more "
                      f"than a third of the {100 * CAP:.0f}% cap",
                      file=sys.stderr)
        BENCHMARK.write_text(json.dumps(config, indent=2) + "\n")
        print(f"bounds written to {BENCHMARK}", file=sys.stderr)


if __name__ == "__main__":
    main()
