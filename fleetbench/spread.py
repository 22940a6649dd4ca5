#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed, one run after another, and prints for
every metric its median over the runs and the distance between the
first and third quartiles as a share of that median -- the figure the
benchmark's bounds in BENCHMARK.json are set against.

    python3 fleetbench/spread.py --workload large_site --seeds 1-10
    python3 fleetbench/spread.py --workload fleet_reads --seeds 1-5 --trace 1

Run it from the root of the repository. It builds and runs the
benchmark through fleetbench/run.py, so the same build settings apply.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        line = " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(result["metrics"].items()))
        print(f"seed {seed}: {line}", flush=True)

    print(f"\n{'metric':32} {'median':>14} {'iqr/median':>11}  n")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:32} {med:14.6g} {spread:11.4f}  {len(v)}")


if __name__ == "__main__":
    main()
