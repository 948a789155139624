#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload plan_json --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds the library and the benchmark binary from source into
.bench_build/perfbench (a no-op when up to date), runs one workload, and
passes the binary's output through: a diagnostics line, then the result
line {"correct", "attempted", "failed", "metrics"}. It exits non-zero when
the build fails, the run fails, or any answer check fails.

--self-test runs every workload with one expected answer corrupted and one
tuple (read-only workloads) or one acknowledged delta (ingest_mixed) taken
out of the generator's model, and passes only if both answer checks catch
them.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "perfbench-data")
BINARY = os.path.join(BUILD_DIR, "hops_perfbench")
WORKLOADS = ("plan_json", "probe_binary", "ingest_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at src/; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hops_perfbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as done:
                    sys.stderr.write("".join(done.readlines()[-40:]))
                fail("build failed; see " + log_path)


def run_binary(workload, seed, seconds, trace, inject_faults=False):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--data-dir", DATA_DIR,
               "--inject-faults", "1" if inject_faults else "0"]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def self_test():
    ok = True
    for workload in WORKLOADS:
        code, lines = run_binary(workload, seed=1, seconds=3, trace=0,
                                 inject_faults=True)
        checks = {}
        if len(lines) >= 2:
            checks = json.loads(lines[-2])["perfbench_diagnostics"]["checks"]
        answers = checks.get("answers", {}).get("failed", 0)
        mass = checks.get("mass", {}).get("failed", 0)
        caught = code != 0 and answers > 0 and mass > 0
        ok = ok and caught
        print(f"{workload}: exit {code}, answer check failed {answers}x "
              f"({checks.get('answers', {}).get('first_failure', '')}), "
              f"mass check failed {mass}x "
              f"({checks.get('mass', {}).get('first_failure', '')}) -> "
              f"{'caught' if caught else 'MISSED'}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_test:
        return self_test()
    code, lines = run_binary(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if code != 0:
        print(f"perfbench: {args.workload} exited with {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
