#!/usr/bin/env python3
"""Steadiness check: run the same code as two sets of runs and compare.

    python3 hbench/steady.py [--workload W ...] [--runs 10] [--sets 2]
                             [--seconds S] [--seed0 N]

Each run gets its own seed.  For every end-to-end metric of
BENCHMARK.json this prints, per set, the median and quartiles
(`statistics.quantiles(n=4)`) and the spread (Q3 - Q1) / median against
the metric's bound, then the worsening of the second set's median over
the first's.  Exits 1 when a spread other than `setup_s`'s, or any
worsening, exceeds its bound, or when the share of failed operations
differs between sets.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady: {' '.join(cmd)} exited {done.returncode}")
    return json.loads(lines[-1])


def worse(first, second, better):
    """Relative worsening of `second` over `first` (negative = better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed0 + 1000 * s + i
                results.append(run_once(workload, seed, args.seconds))
                print(f"{workload} set {s + 1} run {i + 1}/{args.runs} seed {seed}",
                      file=sys.stderr)
            sets.append(results)
        print(f"\n== {workload}: {args.sets} sets x {args.runs} runs, {args.seconds} s each")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        print(f"failed share per set: {shares}")
        if len(set(shares)) > 1:
            ok = False
        print(f"{'metric':28} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, results in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                flag = ""
                if spread > bound and name != "setup_s":
                    flag, ok = "  OVER", False
                elif spread > bound / 3 and name != "setup_s":
                    flag = "  >1/3"
                print(f"{name:28} {s + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound:6.3f}{flag}")
                medians.append(med)
            for s in range(1, len(medians)):
                w = worse(medians[0], medians[s], metric["better"])
                flag = "  OVER" if w > bound else ""
                if flag:
                    ok = False
                print(f"{'':28} set {s + 1} vs 1: {w:+.4f} of the median{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
