#!/usr/bin/env python3
"""The benchmark's own checks, on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Builds the benchmark binary, runs every workload at tiny scale and checks
that
  - every BENCHMARK.json metric is in the result object of its mode
    (end-to-end untraced, per-layer traced) with its unit, and printed as a
    "metric <name> <value> <unit>" line;
  - query_p90_ms is withheld when fewer than 10 samples lie beyond it, and
    reported once at least 10 do;
  - injected failures are counted against attempts;
  - a deliberately altered served answer fails the output check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = []


def expect(condition, what):
    if not condition:
        failures.append(what)
        print("FAILED: " + what, flush=True)


def text_metrics(stdout):
    """{name: (value, unit)} from the "metric" lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    binary = os.path.join(run.build(), "perfbench")

    for workload in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            where = "%s --trace %d" % (workload, trace)
            stdout, result = run.run_workload(binary, workload, 1, 1.0, trace,
                                              ("--tiny",))
            metrics = result["metrics"]
            printed = text_metrics(stdout)
            names = [m["name"] for m in bench[group]]
            expect(sorted(metrics) == sorted(names),
                   where + ": result object holds exactly the %s metrics" % group)
            for m in bench[group]:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"],
                       where + ": %s carries unit %s" % (m["name"], m["unit"]))
                expect(printed.get(m["name"], (0, ""))[1] == m["unit"],
                       where + ": %s printed with its unit" % m["name"])
                if group == "end_to_end":
                    expect(got.get("value", 0) > 0,
                           where + ": %s is nonzero" % m["name"])
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1, where + ": outputs check out")
            if workload == "serve-mixed" and trace == 0:
                samples = printed.get("query_samples", (0, ""))[0]
                expect(samples < 100 and "query_p90_ms" not in printed,
                       where + ": query_p90_ms withheld with %d samples"
                       % samples)
                expect("mutation_p50_ms" in printed and
                       "gen.update_late_ms" in printed,
                       where + ": serve-only metrics printed")

        if workload == "serve-mixed":
            # 6 s of tiny load gives well over 100 samples, so at least 10
            # lie beyond p90 (p90 of 100 distinct samples has 10 beyond).
            stdout, _ = run.run_workload(binary, workload, 1, 6.0, 0,
                                         ("--tiny",))
            printed = text_metrics(stdout)
            samples = printed.get("query_samples", (0, ""))[0]
            expect(samples >= 110 and "query_p90_ms" in printed,
                   workload + ": query_p90_ms reported with %d samples"
                   % samples)

        _, injected = run.run_workload(binary, workload, 1, 1.0, 0,
                                       ("--tiny", "--inject-failures", "2"))
        expect(injected["failed"] == 2 and
               injected["attempted"] > injected["failed"] and
               injected["correct"],
               workload + ": 2 injected failures counted against attempts")

    _, altered = run.run_workload(binary, "serve-mixed", 1, 1.0, 0,
                                  ("--tiny", "--alter-answer"))
    expect(not altered["correct"],
           "serve-mixed: an altered served answer fails the output check")

    print("perfbench selftest: %s" %
          ("all checks passed" if not failures else
           "%d check(s) failed" % len(failures)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
