#!/usr/bin/env python3
"""Run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Builds perfbench/bench.exe (and tools/trace_stats for traced runs) with
dune, runs the workload, and prints every metric by name with its unit,
the workload's one-line verdict and, as the last line, one JSON result.
A traced run (--trace 1) also prints the tools/trace_stats hotspot report
of its Chrome trace. Exits non-zero when the build fails or any output is
wrong. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["compile", "batch", "batch-warm", "simulate", "verify"]
BENCH = "_build/default/perfbench/bench.exe"
TRACE_STATS = "_build/default/tools/trace_stats/trace_stats.exe"
WORK = ".perfbench_work"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for path in ("dune-project", "lib", "perfbench/dune", "tools/trace_stats"):
        if not os.path.exists(path):
            fail(f"{path} is missing: run from the root of a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    built = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe",
         "./tools/trace_stats/trace_stats.exe"],
        stdout=sys.stderr, timeout=880)
    if built.returncode != 0:
        fail("the build failed")


def run(workload, seed, seconds, trace, quiet_json=False):
    """Runs one workload; returns its exit code."""
    cmd = [BENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(170, 4 * seconds + 60))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    code = proc.returncode
    if trace:
        work = os.path.join(WORK, workload)
        report = subprocess.run(
            [TRACE_STATS, os.path.join(work, "trace.json"),
             "--metrics", os.path.join(work, "metrics.json"), "--top", "12"],
            stdout=subprocess.PIPE, text=True, timeout=120)
        print(report.stdout, end="")
        if report.returncode != 0:
            print(f"perfbench: trace_stats rejected the {workload} trace",
                  file=sys.stderr)
            code = code or 1
    if not result.get("correct") and code == 0:
        code = 1
    if not quiet_json:
        print(lines[-1])
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    if args.workload == "all":
        codes = [run(w, args.seed, args.seconds, args.trace, quiet_json=True)
                 for w in WORKLOADS]
        sys.exit(max(codes))
    sys.exit(run(args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    main()
