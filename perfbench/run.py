#!/usr/bin/env python3
"""Builds and runs the Liquid end-to-end benchmark.

    python3 perfbench/run.py --workload nearline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds a Release tree in .bench_build/ from the
sources in src/ and perfbench/; later calls only rebuild what changed. A run
prints the driver's output unchanged: its last line is one JSON object with
"correct", "attempted", "failed" and "metrics". Traced runs (--trace 1) also
write their spans to .bench_build/spans/<workload>.tsv (the latest run's).

--self-test plants one discrepancy per output check and shows that each
check fails, then shows that every workload passes unplanted.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "liquid_bench")
WORKLOADS = ("nearline", "reprocess")

# Every output check, with the workload whose run plants a discrepancy in it.
PLANTS = (
    ("nearline", "nearline.store_fold"),
    ("nearline", "nearline.delivery"),
    ("nearline", "nearline.scan"),
    ("reprocess", "reprocess.latest_value"),
    ("reprocess", "reprocess.count"),
    ("reprocess", "reprocess.scan"),
)


def build():
    """Configures (once) and builds the Release benchmark; exits on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "liquid_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr)
        if result.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def run_benchmark(args):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        # One file per workload: a traced nearline run writes ~65 MB of spans.
        command += ["--spans-out", os.path.join(spans_dir, args.workload + ".tsv")]
    return subprocess.run(command, cwd=ROOT, timeout=170).returncode


def self_test():
    failures = 0
    for workload, plant in PLANTS:
        result = subprocess.run(
            [BINARY, "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0", "--plant", plant],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        caught = result.returncode == 3 and ("CHECK FAILED " + plant) in result.stderr
        print("%-28s %s" % (plant, "caught" if caught else "NOT CAUGHT"))
        failures += not caught
    for workload in WORKLOADS:
        result = subprocess.run(
            [BINARY, "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=170)
        passed = result.returncode == 0 and '"correct": true' in result.stdout
        print("%-28s %s" % (workload + " unplanted", "passes" if passed else "FAILS"))
        failures += not passed
    print("self-test: %s" % ("OK" if failures == 0 else "%d FAILED" % failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    return self_test() if args.self_test else run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
