#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads hot_sync,nvm_read --runs 10

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload and prints, per end-to-end metric, the median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json.  A metric is steady when its spread stays under a third of
its bound.  Use it before claiming a change moved a metric: a difference
smaller than the spread is noise.
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
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode or not result["correct"]:
        raise SystemExit("%s seed %d: run failed (exit %d)"
                         % (workload, seed, out.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--values", action="store_true",
                   help="also print every run's value")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, args.seconds,
                         args.trace) for i in range(args.runs)]
        print("%s: %d runs" % (workload, len(runs)))
        for name in runs[0]:
            med, s = spread([r[name] for r in runs])
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                worst = max(worst, s / bound)
                mark = "  OK" if s < bound / 3 else "  WIDE"
            print("  %-36s median %-14.6g spread %6.2f%%%s%s"
                  % (name, med, 100 * s,
                     "  bound %g%%" % (100 * bound) if bound else "", mark))
            if args.values:
                print("      " + " ".join("%.4g" % r[name] for r in runs))
        sys.stdout.flush()
    print("worst spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()
