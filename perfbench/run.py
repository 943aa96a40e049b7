#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fork-join-tree --seed 1 \
        --seconds 10 --trace 0

Workloads: fork-join-tree, promise-handoff, paper-apps. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and spans of a
traced run to .bench_build/spans. Build output goes to stderr; the last
line of stdout is the run's JSON result. Exits non-zero, printing no
result, if the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "--parallel", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "perfbench")
    try:
        if not build(build_dir):
            print("perfbench: build failed", file=sys.stderr)
            return 1
        done = subprocess.run(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans-dir", os.path.join(target_dir, "spans")],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
            text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: run exited with {done.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
