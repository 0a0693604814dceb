#!/usr/bin/env python3
"""Steadiness check for the admission benchmark.

Runs every workload (or those given) in two sets of runs, each run with
another seed, and prints for each end-to-end metric the median and
quartiles per set, the spread (q3 - q1) / median, and whether the sets
agree within the bounds in BENCHMARK.json:

  * each spread, except that of setup_s, is within the metric's bound
    (set-up time is a handful of samples per run and gated by its median
    only);
  * the two medians differ by at most the bound, in either direction,
    as a share of the first;
  * the share of failed operations is exactly the same in both sets.

A spread above a third of its bound is marked "wide": it passes, but
leaves little room for the noise of another machine or hour.

Run from the repository root:

  python3 admbench/steady.py --runs 10
  python3 admbench/steady.py --runs 5 --sets 1 --workloads paper-load

Exits 1 if any workload disagrees.
"""
import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return res


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]

    ok = True
    for w in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                runs.append(run_once(cmd, w, seed, seconds))
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(runs[-1]["metrics"].items()))
                print(f"  {w} set {s + 1} seed {seed}: ok {vals}", file=sys.stderr)
            sets.append(runs)
        print(f"== {w} ({args.runs} runs x {args.sets} sets, {seconds}s)")
        shares = [Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets]
        print(f"   failed share per set: {', '.join(str(x) for x in shares)}")
        if len(set(shares)) > 1:
            ok = False
            print("   DISAGREE: failed share differs between sets")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, verdict, wide = [], [], False
            stats = []
            for runs in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                stats.append(med)
                cells.append(f"med {med:.4g} q1 {q1:.4g} q3 {q3:.4g} spread {spread:.3f}")
                if name != "setup_s" and spread > bound:
                    verdict.append(f"spread {spread:.3f} > {bound}")
                wide = wide or spread > bound / 3
            if len(stats) == 2:
                moved = abs(stats[1] - stats[0]) / stats[0]
                cells.append(f"medians differ by {moved:.3f}")
                if moved > bound:
                    verdict.append(f"medians differ by {moved:.3f} > {bound}")
            ok = ok and not verdict
            print(f"   {name:20s} bound {bound:<5} | " + " | ".join(cells)
                  + ("  DISAGREE: " + "; ".join(verdict) if verdict else "  wide" if wide else "  ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
