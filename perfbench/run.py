#!/usr/bin/env python3
"""End-to-end QKBfly benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload build_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, in turn

Builds the library and the benchmark driver from source into .bench_build/
(CMake, Release -O2), then runs the workload in a fresh process. Set-up time
is the median over SETUP_SAMPLES fresh processes: the measured run itself
plus SETUP_SAMPLES - 1 set-up-only runs. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["build_cold", "serve_zipf", "serve_churn"]
SETUP_SAMPLES = 3
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "qkbfly_perfbench")


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        # Configure until a generation succeeds (a failed one leaves a
        # CMakeCache.txt but no Makefile).
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                      "--target", "qkbfly_perfbench"])
        for step in steps:
            # Build chatter goes to stderr; stdout carries only results.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                return False
    return True


def driver(workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (stdout lines, parsed last line)."""
    out_dir = os.path.join(BUILD_DIR, "runs", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: driver exited {proc.returncode}")
    return lines, json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    lines, result = driver(workload, seed, seconds, trace)
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    if not trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            _, setup = driver(workload, seed, seconds, trace, ["--setup-only"])
            setups.append(setup["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"[{workload}] setup_s samples: "
              + " ".join(f"{s:.4f}" for s in setups))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 1
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
        else:
            # One fresh process per workload; the summary keys each metric
            # by workload.
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for workload in WORKLOADS:
                one = run_workload(workload, args.seed, args.seconds,
                                   args.trace)
                result["correct"] = result["correct"] and one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, metric in one["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = metric
    except (RuntimeError, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
