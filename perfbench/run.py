#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary from source
(CMake, into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
writes the seed's inputs in a separate process, runs the workload, and
passes its output through: one "metric <name> <value> <unit>" line per
metric, then the result object as the last line. Exits non-zero without a
result when the build, the generator or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("learn-deep", "repo-scan", "serve-mixed")
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds; returns the build directory."""
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.exit("perfbench: build timed out (see %s)" % log_path)
            if done.returncode != 0:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(out, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (see %s)" % log_path)
    return out


def call(argv, timeout, capture=False):
    try:
        return subprocess.run(argv, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % os.path.basename(argv[0]))


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Generates inputs and runs one workload; returns (stdout, result)."""
    runs = os.path.join(build_root(), "runs")
    run_dir = os.path.join(runs, "%s-s%d-p%d" % (workload, seed, os.getpid()))
    common = ["--workload", workload, "--seed", str(seed)]
    tiny = ["--tiny"] if "--tiny" in extra else []
    try:
        gen = call([binary, "gen", *common, "--dir", run_dir, "--seconds", "1",
                    *tiny], GEN_TIMEOUT_S)
        if gen.returncode != 0:
            sys.exit("perfbench: input generation failed")
        done = call([binary, "run", *common, "--seconds", repr(seconds),
                     "--trace", str(trace), "--dir", run_dir, *extra],
                    RUN_TIMEOUT_S, capture=True)
        if done.returncode != 0:
            sys.exit("perfbench: %s run failed" % workload)
        trace_file = os.path.join(run_dir, "trace-%s.jsonl" % workload)
        if os.path.exists(trace_file):
            kept = os.path.join(build_root(), "traces")
            os.makedirs(kept, exist_ok=True)
            shutil.copy(trace_file,
                        os.path.join(kept, "%s-s%d.jsonl" % (workload, seed)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: %s printed no result" % workload)
    return done.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    binary = os.path.join(build(), "perfbench")
    stdout, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
