#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread on one or more workloads.

    python3 perfbench/spread.py [--workload W ...] [--seeds 1-10] [--seconds S]

Runs each workload once per seed (untraced) and prints, for every
end-to-end metric, the median and the interquartile range as a share of the
median (statistics.quantiles, n=4), next to the metric's bound from
BENCHMARK.json; then the same for the wall-time twins of the scaled metrics
(raw.*) and the probed host speed, which have no bound. Exits non-zero when
a spread other than setup_s exceeds its bound or a run's outputs were wrong.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def printed_metrics(stdout):
    """{name: value} from the "metric <name> <value> <unit>" lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = float(parts[2])
    return out


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    binary = os.path.join(run.build(), "perfbench")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload or run.WORKLOADS:
        values = {name: [] for name in bounds}
        unbounded = {}
        for seed in seeds_of(args.seeds):
            stdout, result = run.run_workload(binary, workload, seed,
                                              args.seconds, 0)
            ok &= result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in printed_metrics(stdout).items():
                if name.startswith("raw.") or name == "host.speed":
                    unbounded.setdefault(name, []).append(value)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
        for name, vals in values.items():
            median, share = spread(vals)
            within = share <= bounds[name] or name == "setup_s"
            ok &= within
            print("%-12s %-16s median %-12.6g iqr/median %.4f bound %.2f%s" % (
                workload, name, median, share, bounds[name],
                "" if within else "  OVER"), flush=True)
        for name, vals in unbounded.items():
            if len(vals) >= 2:
                median, share = spread(vals)
                print("%-12s %-16s median %-12.6g iqr/median %.4f" % (
                    workload, name, median, share), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
