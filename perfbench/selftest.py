#!/usr/bin/env python3
"""Shows that the benchmark's output checks and watchdog can fail a run.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it makes two short runs of the benchmark program:

1. --corrupt-oracle adds one to the first expected count. The run must
   report "correct": false and exit non-zero.
2. --watchdog-ms 0.5 sets the stuck-operation limit below any healthy
   query's time. Reads must be cancelled and counted as failed, and the
   run must still end and print its result.

Exits 0 when every case holds.
"""

import json
import subprocess
import sys

from run import WORKLOADS, build

SECONDS = "2"
TIMEOUT_S = 120


def run_case(binary, workload, extra):
    args = [binary, "--workload", workload, "--seed", "1", "--seconds",
            SECONDS, "--trace", "0", "--out-dir", ".bench_out"] + extra
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, ""
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    binary = build()
    failures = []
    for workload in WORKLOADS:
        code, result, _ = run_case(binary, workload, ["--corrupt-oracle"])
        ok = result is not None and result["correct"] is False and code != 0
        print(f"{workload}: wrong expected count -> exit {code}, "
              f"correct={None if result is None else result['correct']}: "
              f"{'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{workload} corrupt-oracle")

        code, result, stderr = run_case(binary, workload,
                                        ["--watchdog-ms", "0.5"])
        ok = (result is not None and result["failed"] > 0 and
              "watchdog cancelled" in stderr)
        summary = ("no result" if result is None else
                   f"{result['failed']} of {result['attempted']} failed")
        print(f"{workload}: watchdog below a healthy query -> {summary}: "
              f"{'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{workload} watchdog")
    if failures:
        sys.exit("selftest FAILED: " + ", ".join(failures))
    print("selftest passed")


if __name__ == "__main__":
    main()
