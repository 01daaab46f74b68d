#!/usr/bin/env python3
"""Build archrisk++ from source and run one riskbench workload.

    python3 riskbench/run.py --workload spec_1m --seed 1 --seconds 20 --trace 0

Run from the repository root.  The build (Release, CMake) goes to
$CARGO_TARGET_DIR, or .bench_build when that is unset; the first run
configures and compiles, later runs only check that the build is up to
date.  Build output goes to standard error; the last line of standard
output is the run's JSON result.  Exits non-zero, printing no result,
when the program cannot be built.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spec_1m", "sweep_limited_data", "serve_whatif")


def build(build_dir):
    """Configure (once) and build every target; returns the exit code."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            rc = subprocess.call(cmd, stdout=sys.stderr)
            if rc != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(build_dir, ignore_errors=True)
                return rc
        return subprocess.call(
            ["cmake", "--build", build_dir, "-j", "4"], stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    rc = build(build_dir)
    if rc != 0:
        print("riskbench: build failed", file=sys.stderr)
        return rc
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.call([
        os.path.join(build_dir, "riskbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", ROOT, "--bin-dir", build_dir, "--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())
