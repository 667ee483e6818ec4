#!/usr/bin/env python3
"""End-to-end FairKM benchmark.

Builds the benchmark program (e2ebench/CMakeLists.txt, which compiles the
library from ../src) in an optimised build, runs one workload, and prints
every metric with its unit and sample count. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).

    python3 e2ebench/run.py --workload csv-report-100k --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --all --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --selftest

Build outputs and the files a run writes go under $CARGO_TARGET_DIR (default
.bench_build) in the current directory; the run's own files are removed when
it ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["csv-report-100k", "adult-train-serve", "online-window"]
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "E2EBENCH_RESULT "


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "e2ebench")


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "fairkm_e2ebench", "e2ebench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    work = os.path.join(build_dir(), "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, universal_newlines=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    return proc.returncode, result


def result_line(result, trace):
    """Selects the metrics BENCHMARK.json declares for this kind of run."""
    metrics = {}
    for m in declared_metrics(trace):
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing from the %s run" %
                 (m["name"], result["workload"]))
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not (args.selftest or args.all or args.workload):
        parser.error("one of --workload, --all or --selftest is required")

    out = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "e2ebench_selftest")])
                 .returncode)

    binary = os.path.join(out, "fairkm_e2ebench")
    workloads = WORKLOADS if args.all else [args.workload]
    lines, worst = [], 0
    for workload in workloads:
        code, result = run_workload(binary, workload, args.seed, args.seconds,
                                    args.trace)
        if result is None:
            fail("%s exited with %d and printed no result" % (workload, code))
        line = result_line(result, args.trace)
        lines.append(line)
        worst = max(worst, code)
        if args.all:
            print(json.dumps(dict(line, workload=workload)))
    if not args.all:
        print(json.dumps(lines[0]))
    sys.exit(1 if worst else 0)


if __name__ == "__main__":
    main()
