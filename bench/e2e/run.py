#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

Usage, from the repository root:

    python3 bench/e2e/run.py --workload plan_churn --seed 1 --seconds 10 --trace 0

Configures and builds bench/e2e (a standalone CMake project over src/)
into .bench_build/e2e on first use, then runs one workload. The last
line of standard output is the JSON result; build output goes to
standard error. The exit code is the benchmark's: 0 when every
operation and correctness check passed, non-zero otherwise.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
WORKLOADS = ("plan_churn", "serve_llm")


def usable_cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(jobs):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no src/ beside bench/e2e; run from a full checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs)], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "parva_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build(usable_cpus())
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    # The child is waited for on every path, interrupts included.
    with subprocess.Popen(command) as child:
        try:
            return child.wait()
        except BaseException:
            child.kill()
            child.wait()
            raise


if __name__ == "__main__":
    sys.exit(main())
