#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly on one commit and print,
for every end-to-end metric, the median, the quartiles and the quartile
spread as a share of the median.  The bounds in BENCHMARK.json are set
from this.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [WORKLOAD ...]

Each run is `run.py --trace 0` for BENCHMARK.json's run_seconds, with
seeds 1..runs; the workloads default to BENCHMARK.json's.  A run that
fails or reports failed operations is shown and counted.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    for workload in args.workloads:
        values, shares = {}, []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            lines = done.stdout.decode().strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}", flush=True)
                continue
            result = json.loads(lines[-1])
            shares.append(result["failed"] / result["attempted"])
            summary = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {summary}", flush=True)
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"== {workload}: {len(shares)} runs, failed shares {sorted(set(shares))}")
        print(f"   {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for k, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else vs * 3
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(k)
            mark = "" if bound is None else f"{bound:6.2f}" + (" !" if spread > bound / 3 else "")
            print(f"   {k:14} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {mark}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
