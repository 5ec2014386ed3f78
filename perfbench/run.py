#!/usr/bin/env python3
"""Builds the toolchain benchmark from source and runs one workload.

    python3 perfbench/run.py --workload dse_cold|serve_mix|fuzz_gen \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark (perfbench/CMakeLists.txt)
builds the repository's libraries in Release into the build directory
($CARGO_TARGET_DIR, default .bench_build) and then runs the `perfbench`
program in this process's place: its standard output, whose last line is the
JSON result, and its exit code are the benchmark's. Build output goes to
standard error.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's unit tests, then runs every workload with a
corrupted reference and checks that each one reports failures.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dse_cold", "serve_mix", "fuzz_gen")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j4", "--target", *targets],
                   stdout=sys.stderr, check=True)
    return out


def perfbench_args(out, workload, seed, seconds, trace, corrupt=False):
    args = [os.path.join(out, "perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", os.path.relpath(out, ROOT)]
    return args + (["--corrupt-reference"] if corrupt else [])


def self_test():
    out = build(["perfbench", "perfbench_tests"])
    status = subprocess.run([os.path.join(out, "perfbench_tests")],
                            cwd=ROOT).returncode
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = subprocess.run(
                perfbench_args(out, workload, 1, 2, trace, corrupt=True),
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            caught = (run.returncode == 0 and result.get("failed", 0) > 0
                      and result.get("correct") is False)
            print(f"corrupted reference, {workload} trace={trace}: "
                  f"{result.get('failed')} of {result.get('attempted')} "
                  f"failed -> {'caught' if caught else 'NOT CAUGHT'}")
            status = status or (0 if caught else 1)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    # The benchmark measures this repository's toolchain: without its
    # sources there is nothing to build.
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["perfbench"])
    return subprocess.run(
        perfbench_args(out, args.workload, args.seed, args.seconds, args.trace),
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
