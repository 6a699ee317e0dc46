#!/usr/bin/env python3
"""Run one workload several times in fresh processes and show how steady
each metric is.

    python3 perfbench/repeat.py --workload point-zipf --runs 10 --sets 2

Each run is `perfbench/run.py --workload W --seed S --seconds N --trace T`
with its own seed. For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json; a spread under a third of
the bound is marked steady. With --sets 2 it runs a second set on fresh
seeds and prints how much worse the second median is than the first, which
must stay within the bound. It also checks that every run was correct and
that the failed share of attempted operations is the same in every run.
With --trace 1 it prints the per-layer medians instead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"run with seed {seed} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1, help="first seed; runs use consecutive seeds")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    defs = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    sets = []
    seed = args.seed
    for s in range(args.sets):
        results = []
        for _ in range(args.runs):
            r = run_once(args.workload, seed, seconds, args.trace)
            seed += 1
            share = r["failed"] / r["attempted"]
            print(f"set {s + 1} seed {seed - 1}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} share={share:.9f}", flush=True)
            results.append(r)
        sets.append(results)

    ok = True
    shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
    correct = all(r["correct"] for rs in sets for r in rs)
    print(f"\nall correct: {correct}; failed share identical in every run: {len(shares) == 1} {sorted(shares)}")
    ok = ok and correct and len(shares) == 1
    header = f"{'metric':32} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}"
    if args.trace == 0:
        header += f" {'bound':>7} {'steady':>6}"
        if args.sets > 1:
            header += f" {'drift':>8} {'within':>6}"
    for s, rs in enumerate(sets):
        print(f"\nset {s + 1}:\n{header}")
        for d in defs:
            vals = [r["metrics"][d["name"]]["value"] for r in rs]
            if len(vals) < 2:
                print(f"{d['name']:32} {d['unit']:6} {vals[0]:14.4f}")
                continue
            med, q1, q3, spread = stats(vals)
            line = f"{d['name']:32} {d['unit']:6} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.2%}"
            if args.trace == 0:
                bound = d["bound"]
                steady = d["name"] == "setup_s" or spread < bound / 3
                line += f" {bound:7.0%} {'yes' if steady else 'NO':>6}"
                ok = ok and steady
                if s > 0:
                    first = statistics.median([r["metrics"][d["name"]]["value"] for r in sets[0]])
                    worse = (med - first) / first if d["better"] == "lower" else (first - med) / first
                    within = worse <= bound
                    ok = ok and within
                    line += f" {worse:8.2%} {'yes' if within else 'NO':>6}"
            print(line)
    if args.trace == 0:
        print("\nsteady and repeatable within every bound" if ok else "\nNOT steady within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
