#!/usr/bin/env python3
"""Determinism self-check of trapjit-bench's count metrics.

Runs the benchmark binary twice per workload and mode, with different seeds, and
requires every count metric (unit `count` or `bytes`) to agree exactly
between the two runs: code sizes, check counts, solver block visits,
tier-up counts, and the per-request traps, deopts, calls, allocations,
instructions and recycled bytes.  Seeds only change the request order,
so the counts may not depend on them.  Every run must also answer every
request correctly and report audit.findings == 0.

    python3 trapjit_bench/test_determinism.py              # builds first
    python3 trapjit_bench/test_determinism.py --binary B   # uses B
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["loop_kernels", "call_chains", "null_traps"]
SEEDS = [1, 2]
SECONDS = "1"
COUNT_UNITS = {"count", "bytes"}


def run(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", trace]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TRAPJIT_")}
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         timeout=170)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    out.returncode,
                                                    out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", help="prebuilt trapjit_bench binary")
    args = parser.parse_args()
    binary = args.binary
    if binary is None:
        sys.dont_write_bytecode = True
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import run as bench_run  # noqa: E402  (the sibling run.py)
        if not bench_run.build():
            print("build failed", file=sys.stderr)
            return 1
        binary = bench_run.BINARY

    problems = []
    for workload in WORKLOADS:
        for trace in ["0", "1"]:
            results = [run(binary, workload, seed, trace) for seed in SEEDS]
            for seed, r in zip(SEEDS, results):
                if not r["correct"] or r["failed"] != 0:
                    problems.append("%s seed %d: %d of %d requests failed"
                                    % (workload, seed, r["failed"],
                                       r["attempted"]))
                findings = r["metrics"].get("audit.findings")
                if findings is not None and findings["value"] != 0:
                    problems.append("%s seed %d: audit findings" %
                                    (workload, seed))
            first, second = (counts(r) for r in results)
            if not first:
                problems.append("%s trace=%s: no count metrics" %
                                (workload, trace))
            for name in sorted(set(first) | set(second)):
                a, b = first.get(name), second.get(name)
                if a != b:
                    problems.append("%s %s: %r != %r" % (workload, name, a,
                                                         b))
            print("%s trace=%s: %d count metrics agree" %
                  (workload, trace, len(first)))
    for p in problems:
        print("MISMATCH " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
