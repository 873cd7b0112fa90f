#!/usr/bin/env python3
# Copyright 2026 The updb Authors.
"""Repo benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rknn1k --seed 1 --seconds 45 --trace 0

Builds the updb library and the benchmark runner from source into
.bench_build/perfbench (CMake, Release), runs the known-answer self-test
of the statistics helpers, then runs one workload. The runner's standard
output is passed through; its last line is the JSON result. Exits non-zero,
without printing a result, when the build, the self-test or the runner
fails to run; an oracle failure prints the result with "correct": false and
exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")])
    if selftest.returncode != 0:
        log("perfbench: statistics self-test failed")
        return 1

    workdir = os.path.join(".bench_build", "perfbench-work-%d" % os.getpid())
    cmd = [os.path.join(BUILD_DIR, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: runner timed out")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("perfbench: runner produced no result (exit %d)" % proc.returncode)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
