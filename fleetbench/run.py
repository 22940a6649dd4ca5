#!/usr/bin/env python3
"""Build the fleet-day benchmark from source and run it.

    python3 fleetbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Arguments pass through to the
benchmark binary. Cargo's output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Build output lands in
CARGO_TARGET_DIR (default: .bench_build), and each run writes its run
record (and, when traced, its spans) to fleetbench-runs/ there.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit(f"fleetbench: build failed (exit code {build.returncode})")
    exe = os.path.join(target, "release", "fleetbench")
    out = os.path.join(target, "fleetbench-runs")
    run = subprocess.run([exe, *sys.argv[1:], "--out", out], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
