#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds 10]

Runs perfbench/run.py once per seed, printing each run's metric values in
BENCHMARK.json order (a host that slows down between runs shows up as a
drift in every column at once), and then prints, for each metric, the median
of the runs and the distance between the first and third quartile as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. These are the figures README.md records.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode))
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status = "ok" if result["correct"] and result["failed"] == 0 else "FAILED"
        print("seed %d: %s, %d attempted, %d failed:" %
              (seed, status, result["attempted"], result["failed"]),
              " ".join("%.4g" % m["value"]
                       for m in result["metrics"].values()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-38s %14s %9s %7s" % ("metric", "median", "IQR/med", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-38s %14.6g %8.1f%% %7s" %
              (name, med, 100 * spread, "-" if bound is None else bound))


if __name__ == "__main__":
    main()
