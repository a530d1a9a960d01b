#!/usr/bin/env python3
"""Repo benchmark: build the benchmark package from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Every call configures and builds the
library (../src) and the benchmark program in Release under $CARGO_TARGET_DIR, or
.bench_build when that is unset; after the first call this only checks that the
build is current.
Build output goes to stderr, so the last stdout line is always the result
object printed by the benchmark program. Workloads, metrics and checks: README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mesh900_dense", "mesh10k_sparse", "serve_mix")
RUN_TIMEOUT_S = 175
# Counters that must repeat exactly between two runs of the same seed.
EXACT_PREFIXES = ("svd_", "sparse_lu_")
EXACT_NAMES = ("shifted_solve", "pmtbr_samples")


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
                        "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure every time: it is cheap when nothing changed, and CMake refuses
    # a build directory configured from another checkout's sources.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", target, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def run_benchmark(binary, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def twin_counters(stdout):
    for line in stdout.splitlines():
        if line.startswith('{"twin_counters"'):
            return json.loads(line)["twin_counters"]
    raise RuntimeError("traced run printed no twin_counters line")


def self_test():
    tests = build("perfbench_tests")
    binary = build("perfbench")
    if tests is None or binary is None:
        return 1
    if subprocess.run([tests]).returncode != 0:
        return 1
    # Two traced runs of one seed, in separate processes: the exact counters
    # of the replayed reduction must agree.
    seen = []
    for _ in range(2):
        res = run_benchmark(binary, "mesh900_dense", 7, 1, True, capture=True)
        if res is None or res.returncode != 0:
            print("self-test: traced run failed", file=sys.stderr)
            return 1
        c = twin_counters(res.stdout)
        seen.append({k: v for k, v in c.items()
                     if k.startswith(EXACT_PREFIXES) or k in EXACT_NAMES})
    if seen[0] != seen[1] or not seen[0]:
        print("self-test: exact counters differ between runs: %s vs %s" % tuple(seen),
              file=sys.stderr)
        return 1
    print("self-test: exact counters repeat: %s" % json.dumps(seen[0], sort_keys=True))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    binary = build("perfbench")
    if binary is None:
        return 1
    sys.stdout.flush()
    res = run_benchmark(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    return 1 if res is None else res.returncode


if __name__ == "__main__":
    sys.exit(main())
