#!/usr/bin/env python3
"""Builds the RPQd benchmark program in Release and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload bi9-4m --seed 1 --seconds 20 --trace 0

Workloads: bi9-4m, serve-rw-4m (see perfbench/README.md).
The build lives in $CARGO_TARGET_DIR/perfbench (default .bench_build);
traced runs write their spans to .bench_out/. The last line of stdout is
the run's JSON result. The exit code is the program's: 0 when every
checked output was correct, non-zero otherwise or when the build fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bi9-4m", "serve-rw-4m")
# Longest a run may take once built; a stuck run is killed before this.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the program; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "rpqd_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "rpqd_perfbench")


def run(binary, args):
    """Runs the program, forwarding its output; returns its exit code."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run killed after {RUN_TIMEOUT_S} s")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    binary = build()
    sys.exit(run(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--out-dir", os.path.abspath(".bench_out")]))


if __name__ == "__main__":
    main()
