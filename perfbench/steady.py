#!/usr/bin/env python3
"""Steadiness check: run each workload K times with seeds base..base+K-1
and print, for every end-to-end metric, the median, the quartiles and
(Q3-Q1)/median beside the metric's bound from BENCHMARK.json, plus the
share of failed requests. Each run's line on stderr also gives the CPU
steal share the host showed during it (from /proc/stat), since slow
spells of a shared host show up there.

    python3 perfbench/steady.py                      # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 --workloads solve-cold --seed-base 100
    python3 perfbench/steady.py --out set1.json     # keep the raw result lines

The workloads take turns (seed 1 of each, then seed 2 of each, ...), so
a slow spell of the host falls on all of them rather than on one.
Quartiles are statistics.quantiles(values, n=4). Exits 1 when a spread
exceeds its bound, a run is not correct, or the failed share differs
between runs of one workload."""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None off Linux"""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join("perfbench", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    before = cpu_times()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    after = cpu_times()
    r = json.loads(out.strip().splitlines()[-1])
    if before and after and after[1] > before[1]:
        # the share of CPU time the hypervisor gave to other guests
        r["steal"] = (after[0] - before[0]) / (after[1] - before[1])
    return r


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="also write every run's result line to this JSON file")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            r = run_once(workload, args.seed_base + i, args.seconds, 0)
            results[workload].append(r)
            steal = f" steal={r['steal']:.3f}" if "steal" in r else ""
            print(f"  {workload} seed {args.seed_base + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}{steal}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    for workload in workloads:
        runs = results[workload]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {args.runs} runs, correct={correct}, failed share {sorted(shares)}")
        ok = ok and correct and len(shares) == 1
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bound:
                flag, ok = "  WIDER THAN BOUND", False
            elif spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
