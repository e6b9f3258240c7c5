#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <fpras|exact_mc|live> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library and the perfbench program into .bench_build/ (Release); later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the run's JSON result.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fpras", "exact_mc", "live")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))
            and os.path.isfile(os.path.join(bench_dir, "CMakeLists.txt"))):
        sys.exit("run.py: run from the root of a uocqa checkout "
                 "(CMakeLists.txt, src/ and perfbench/ are needed)")

    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "work")
    os.makedirs(build_root, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: build failed: %s" % e)
