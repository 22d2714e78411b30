#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload check_warm --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Workloads: check_cold, check_warm, trace_stream, fuzz_campaign.  The build
goes to $CARGO_TARGET_DIR when set, else .bench_build (both relative to the
root).  Build output goes to stderr; stdout carries the benchmark's stamp
line, its table row and, last, the result object.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("check_cold", "check_warm", "trace_stream", "fuzz_campaign")


def build(build_dir, targets):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                 + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    targets = ["ssm_cli", "perfbench"]
    if args.self_test:
        build(build_dir, targets + ["perfbench_selftest"])
        sys.exit(subprocess.run(["ctest", "--test-dir", build_dir,
                                 "--output-on-failure"]).returncode)
    build(build_dir, targets)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--ssm", os.path.join(build_dir, "ssm", "tools", "ssm")]
    sys.stdout.flush()
    os.execv(cmd[0], cmd)  # no process left between the caller and the run


if __name__ == "__main__":
    main()
