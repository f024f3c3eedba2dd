#!/usr/bin/env python3
"""Repeat driver: how steady is each metric of the end-to-end benchmark?

Usage, from the root of a checkout:

    python3 e2ebench/repeat.py --workload tiny-serve --runs 10 [--first-seed 1]
                               [--seconds 20] [--trace 0]

Runs e2ebench/run.py once per seed (first-seed, first-seed + 1, ...) and
prints, for every metric of the mode plus host.ref_ms, the median, the
quartiles (Python's statistics.quantiles(values, n=4)), the min/max and
the spread: the interquartile distance as a share of the median.  For
end-to-end metrics the spread is set against the bound in BENCHMARK.json;
a benchmark is steady when every spread but setup_s stays below a third
of its bound.  The runs' values are saved to
.bench_build/e2ebench/repeat-<workload>-trace<T>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    """Median, quartiles, extremes and spread of one metric's runs."""
    values = [float(v) for v in values]
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
    }


def verdict(spread, bound, name):
    """Steadiness of an end-to-end metric against its bound."""
    if bound is None:
        return ""
    if name == "setup_s":
        return "(median drift gated only)"
    if spread <= bound / 3:
        return "steady"
    return "WITHIN BOUND" if spread <= bound else "TOO NOISY"


def run_once(workload, seed, seconds, trace):
    """One run.py invocation: (final result line, full report)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("run failed (seed %d):\n%s" % (seed, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    series = {}
    incorrect = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        line, report = run_once(args.workload, seed, seconds, args.trace)
        incorrect += 0 if line["correct"] else 1
        for name, m in line["metrics"].items():
            series.setdefault(name, []).append(m["value"])
        series.setdefault("host.ref_ms", [])
        if "host.ref_ms" not in line["metrics"]:
            series["host.ref_ms"].append(
                report["metrics"]["host.ref_ms"]["value"])
        print("seed %d: correct=%s attempted=%d failed=%d"
              % (seed, line["correct"], line["attempted"], line["failed"]),
              flush=True)

    print("\n%s, %d runs of %d s, trace %d"
          % (args.workload, args.runs, seconds, args.trace))
    print("%-34s %12s %12s %12s %12s %12s %8s %6s  %s"
          % ("metric", "median", "q1", "q3", "min", "max", "spread",
             "bound", ""))
    table = {}
    for name, values in series.items():
        s = summarize(values)
        table[name] = dict(s, values=values)
        bound = bounds.get(name)
        print("%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s  %s"
              % (name, s["median"], s["q1"], s["q3"], s["min"], s["max"],
                 s["spread"], "" if bound is None else bound,
                 verdict(s["spread"], bound, name)))
    print("runs not correct: %d" % incorrect)
    out = os.path.join(ROOT, ".bench_build", "e2ebench",
                       "repeat-%s-trace%d.json" % (args.workload, args.trace))
    with open(out, "w") as f:
        json.dump({"workload": args.workload, "seconds": seconds,
                   "first_seed": args.first_seed, "metrics": table}, f,
                  indent=1)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
