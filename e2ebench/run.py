#!/usr/bin/env python3
"""Build and run the SMASH end-to-end benchmark.

    python3 e2ebench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
the library and the benchmark (CMake, Release) into .bench_build/;
later runs find the build current. Build output goes to standard
error; the benchmark's standard output is passed through, and its
last line is the run's JSON result. --self-test plants faults and
exits 0 only if the run reports exactly the planted operations as
failed.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "smash_e2ebench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then bring the build up to date (under a lock,
    so concurrent invocations do not build over each other)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                       stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["rpc_small", "rpc_large", "rpc_mutate"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "session.hh")):
        print("run.py: library sources (src/) not found next to "
              "e2ebench/; run from a full checkout", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.self_test:
        cmd.append("--self-test")
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
