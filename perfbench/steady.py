#!/usr/bin/env python3
"""Steadiness report: repeat one workload N times and summarise each metric.

Run from the repository root:

    python3 perfbench/steady.py --workload online-b4-diurnal --runs 10
    python3 perfbench/steady.py --workload serve-b4 --runs 3 --same-seed --trace 1

Each run uses the command in BENCHMARK.json with its own seed (first seed,
first seed + 1, ...), or one seed for every run with --same-seed. For every
metric the report prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the spread (q3 - q1) / median,
and whether all runs read exactly the same value (machine-independent
counters do when the seed repeats). For end-to-end metrics it also prints
the metric's bound and whether the spread stays below a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def load_benchmark():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return spec, bounds


def one_run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    character = next((l for l in lines if l.startswith("character:")), "")
    if not lines:
        raise SystemExit(f"seed {seed}: no output (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return proc.returncode, result, character, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true", help="repeat the first seed every run")
    ap.add_argument("--seconds", type=int, help="defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if opts.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    spec, bounds = load_benchmark()
    seconds = opts.seconds if opts.seconds is not None else spec["run_seconds"]
    values = {}
    units = {}
    failed = 0
    for k in range(opts.runs):
        seed = opts.first_seed if opts.same_seed else opts.first_seed + k
        code, result, character, wall = one_run(spec["command"], opts.workload, seed, seconds, opts.trace)
        ok = code == 0 and result["correct"] and result["failed"] == 0
        failed += 0 if ok else 1
        print(f"run {k + 1}/{opts.runs} seed={seed} exit={code} wall={wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {character}", flush=True)
        if opts.trace == 0:
            print("    " + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print()
    print(f"{'metric':<26} {'unit':<10} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
          f"{'exact':>5} {'bound':>6} steady")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        exact = "yes" if len(set(vals)) == 1 else "no"
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and opts.trace == 0:
            verdict = "ok" if name == "setup_s" or spread < bound / 3 else "WIDE"
        print(f"{name:<26} {units[name]:<10} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{exact:>5} {'' if bound is None else bound:>6} {verdict}")
    if failed:
        print(f"{failed} run(s) failed their output checks", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
