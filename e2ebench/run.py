#!/usr/bin/env python3
"""End-to-end benchmark of the aqfpsc engine: one workload, one run.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload tiny-batch --seed 1 --seconds 20 --trace 0

Workloads: tiny-batch and tiny-serve, the two BENCHMARK.json lists, and
snn-batch, which runs on demand (see e2ebench/README.md).

The script builds the benchmark package (e2ebench/CMakeLists.txt, which
builds the repository's library from source) into .bench_build/e2ebench,
trains the workload's model once per source tree in a separate process,
then runs the workload in a process of its own.  It prints that process's
full report (every metric with its unit and sample count, the correctness
gates, the host stamp) and, as its last line, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1).  Reports and traced spans are kept under
.bench_build/e2ebench/.  The exit code is non-zero, with no result line,
when the build, the training or the workload process fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("tiny-batch", "snn-batch", "tiny-serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    """The benchmark contract: metric names per mode, with units."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def tree_digest(*dirs):
    """sha256 over the relative paths and contents of every file under
    @p dirs: the key of the trained-model cache (training depends on the
    library and on the recipes in the benchmark program), and a stamp of
    the code that holds where git does not."""
    h = hashlib.sha256()
    for top in dirs:
        for base, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def logged(cmd, log, timeout):
    """Run @p cmd with output appended to @p log; fail on error."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT,
                                timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail("%s failed (%s); log %s:\n%s" % (cmd[0], rc, log, tail))


def build_and_prepare(workload):
    """Build the package and train the workload's model, each once per
    source tree.  Returns (binary, models directory, source digest)."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        # A failed configure leaves a cache but no build system behind.
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("Makefile", "build.ninja")):
            logged(["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B",
                    BUILD, "-DCMAKE_BUILD_TYPE=Release"], log, 300)
        logged(["cmake", "--build", BUILD, "-j", jobs], log, 800)
        binary = os.path.join(BUILD, "e2ebench")
        digest = tree_digest("src", "e2ebench/src")
        models = os.path.join(BUILD, "models", digest[:16])
        os.makedirs(models, exist_ok=True)
        logged([binary, "prepare", "--workload", workload, "--models",
                models], os.path.join(BUILD, "prepare.log"), 800)
    return binary, models, digest


def run_workload(binary, models, args):
    """Run one workload process; return its parsed report."""
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--models", models]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s"
             % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("workload %s exited %d:\n%s"
             % (args.workload, proc.returncode, proc.stderr[-4000:]))
    try:
        return json.loads(proc.stdout)
    except ValueError:
        fail("workload %s printed no report:\n%s"
             % (args.workload, proc.stdout[-4000:]))


def result_line(report, spec, trace):
    """The contract's last line: the mode's metrics, by name, with units.
    Raises KeyError naming a metric the report lacks."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            raise KeyError(m["name"])
        if got["unit"] != m["unit"]:
            raise KeyError("%s unit %s != %s"
                           % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    gates_ok = all(g["mismatches"] == 0 for g in report["gates"])
    return {
        "correct": gates_ok and report["failed"] == 0
                   and report["attempted"] >= 1,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    spec = load_spec()
    binary, models, digest = build_and_prepare(args.workload)
    report = run_workload(binary, models, args)
    report["build"]["src_sha256"] = digest
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(report, f, indent=1)

    try:
        line = result_line(report, spec, args.trace)
    except KeyError as e:
        fail("report lacks metric %s" % e)
    for name, m in sorted(report["metrics"].items()):
        print("%-36s %16.6g %-9s n=%d"
              % (name, m["value"], m["unit"], m["samples"]))
    for g in report["gates"]:
        print("gate %-40s checked=%d mismatches=%d"
              % (g["name"], g["checked"], g["mismatches"]))
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
