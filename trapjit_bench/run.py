#!/usr/bin/env python3
"""Build and run trapjit-bench on one workload.

    python3 trapjit_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of the repository.  Every run configures and builds
trapjit_bench/ (the trapjit library from src/ plus the benchmark binary) in
.bench_build/trapjit_bench; only the first run compiles everything.  Build
output goes to stderr, so the last line of stdout is the binary's JSON
result.  With --trace 1 the spans are also written to
.bench_build/trace-<workload>-<seed>.json.  TRAPJIT_* environment
variables are removed for the binary, so results never depend on them.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "trapjit_bench")
BINARY = os.path.join(BUILD_DIR, "trapjit_bench")
# The binary stops itself; this only guards against a hang.
RUN_TIMEOUT_S = 175


def build():
    """Configure and build the binary (incrementally); True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "trapjit_bench"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not build():
        print("trapjit-bench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-file", os.path.join(
            BUILD_ROOT, "trace-%s-%d.json" % (args.workload, args.seed))]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TRAPJIT_")}
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("trapjit-bench: binary timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
