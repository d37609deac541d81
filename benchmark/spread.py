#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload RUNS times (default 10), each with another --seed, and
prints per metric the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound. The goal is
a spread below a third of the bound.

usage: benchmark/spread.py [--runs N] [--seconds S] [--workload NAME] [--first-seed K] [--values]
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
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--values", action="store_true", help="print every run's value too")
    args = ap.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({args.runs} runs of {seconds} s)")
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            share = spread / bounds[name]
            worst = max(worst, share if name != "setup_s" else 0.0)
            flag = "" if share <= 1 / 3 else ("  > third of bound" if share <= 1 else "  > BOUND")
            print(f"{name:22} median {med:12.4f}  spread {spread:7.4f}  bound {bounds[name]:5.2f}{flag}")
            if args.values:
                print("    " + " ".join(f"{v:.4g}" for v in vs))
        sys.stdout.flush()
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
