#!/usr/bin/env python3
"""Build the benchmark binary from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload batch-flu --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The build (CMake, Release) goes to
.bench_build/perfbench/; build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. The exit code is the binary's: non-zero
when a correctness gate fails. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "stkde_perfbench"
WORKLOADS = ("batch-flu", "live-dengue")
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    args = parse_args()
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
