#!/usr/bin/env python3
"""The benchmark's own tests; run from the root of a checkout.

    python3 perfbench/selftest.py

1. Metric names: a short timed run and a short traced run of every
   workload print exactly the end_to_end and per_layer metrics that
   BENCHMARK.json declares.
2. Exact counts: two traced runs with the same seed report identical
   deterministic counters (the ROADMAP's exact proxies).
3. Oracles bite: corrupting one expectation (a simulator report field, a
   compile oracle IR, a batch oracle IR) makes the run exit non-zero with
   "correct": false.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXACT = [
    "met.ops_out", "rewriter.attempts", "rewriter.rewrites",
    "machine.accesses", "machine.iterations", "tune.candidates",
    "tune.evaluated", "cache.hits", "cache.misses", "interp.checked_share",
]
# Traced-prefix length is rate x seconds / 2: simulate needs 4 s to reach
# both a tuned and an untuned cell.
SECONDS = {"compile": 2, "batch": 2, "batch-warm": 2, "simulate": 4,
           "verify": 2}


def bench(*args):
    proc = subprocess.run([run.BENCH, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def main():
    run.build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    failures = []

    def expect(cond, msg):
        print(("ok   " if cond else "FAIL ") + msg, flush=True)
        if not cond:
            failures.append(msg)

    for w in run.WORKLOADS:
        code, res = bench("--workload", w, "--seed", "5", "--seconds", "1")
        expect(code == 0 and res["correct"], f"{w}: timed run is correct")
        expect(list(res["metrics"]) == e2e, f"{w}: end_to_end metric names")
        traced = []
        for _ in range(2):
            code, res = bench("--workload", w, "--seed", "5", "--seconds",
                              str(SECONDS[w]), "--trace", "1")
            expect(code == 0 and res["correct"], f"{w}: traced run is correct")
            traced.append(res["metrics"])
        expect(list(traced[0]) == per_layer, f"{w}: per_layer metric names")
        for name in EXACT:
            a, b = (t[name]["value"] for t in traced)
            expect(a == b, f"{w}: {name} repeats exactly ({a} vs {b})")

    for w in ["simulate", "compile", "batch", "batch-warm"]:
        code, res = bench("--workload", w, "--seed", "5", "--seconds", "1",
                          "--perturb")
        expect(code != 0 and not res["correct"] and res["failed"] > 0,
               f"{w}: a corrupted expectation fails the run")

    if failures:
        sys.exit(f"{len(failures)} self-test failure(s)")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
