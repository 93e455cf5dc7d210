#!/bin/sh
# Tier-1 gate: everything must build and every test must pass.
set -eu
cd "$(dirname "$0")/.."
dune build
dune runtest
# Smoke-run the micro benchmarks so rewrite-driver regressions (which the
# unit tests may not exercise at scale) still fail the gate.
dune exec bench/main.exe -- micro --quick
# Smoke-run the interpreter-engine comparison: fails if the staged engine
# and the tree-walking oracle ever disagree on a benchmark kernel.
dune exec bench/main.exe -- interp --quick
# Smoke-run the frozen-pattern-set comparison: fails if op-indexed dispatch
# ever changes rewriting results, or if its match-attempt reduction on the
# polybench raising pipeline drops below 5x. (No --trace here: a sink being
# installed would skip the disabled-trace overhead assertion.)
dune exec bench/main.exe -- patterns --quick
# Smoke-run the large-module scale gate on its 60k-op --quick setting:
# fails if compiled dispatch ever changes rewriting results on the
# synthesized module or if the deterministic match-attempt reduction
# drops below 5x. The 5x steady-state *wall-clock* gate is recorded in
# BENCH_scale.json on every run but asserted only under
# MLT_BENCH_ASSERT_SPEEDUP=1 (shared CI hosts — see docs/PERF.md).
dune exec bench/main.exe -- scale --quick
dune exec tools/json_check/json_check.exe -- BENCH_scale.json
# Smoke-run the schedule autotuner on its trimmed --quick space: fails if
# the searched winner is ever slower on the machine model than the
# pluto-default baseline (the space contains it), and validates the
# per-candidate results recorded in BENCH_tune.json (docs/TRANSFORM.md).
dune exec bench/main.exe -- tune --quick
dune exec tools/json_check/json_check.exe -- BENCH_tune.json results
# Smoke the observability surface: --trace must produce a loadable Chrome
# trace (non-empty traceEvents) and --pass-stats a well-formed JSON report
# (schemas in docs/OBSERVABILITY.md).
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
dune exec bin/mlt_opt.exe -- examples/kernels/gemm.c \
  --raise-affine-to-linalg --trace "$obs_tmp/trace.json" --pass-stats \
  -o "$obs_tmp/out.mlir" > "$obs_tmp/stats.json"
dune exec tools/json_check/json_check.exe -- "$obs_tmp/trace.json" traceEvents
dune exec tools/json_check/json_check.exe -- "$obs_tmp/stats.json"
# trace_stats must digest the smoke trace (hotspots + pattern
# attribution, folding in the pass-stats JSON), and --diff of two runs
# of the same pipeline must accept the matching run_meta schema stamps
# and exit 0 (docs/OBSERVABILITY.md).
dune exec tools/trace_stats/trace_stats.exe -- "$obs_tmp/trace.json" \
  --stats "$obs_tmp/stats.json" --top 5
dune exec bin/mlt_opt.exe -- examples/kernels/gemm.c \
  --raise-affine-to-linalg --pass-stats -o /dev/null \
  > "$obs_tmp/stats2.json"
dune exec tools/trace_stats/trace_stats.exe -- --diff \
  "$obs_tmp/stats.json" "$obs_tmp/stats2.json"
# mlt-opt's pass flags run as transform-script steps: every invocation
# of a fixed flag matrix (each flag alone, the README combinations,
# configs plus flags, --tactics, the Darknet GEMM, IR input) must print
# the IR whose digests scripts/mlt_opt_digests.txt records.
scripts/mlt_opt_matrix.sh > "$obs_tmp/mlt_opt_digests.txt"
diff scripts/mlt_opt_digests.txt "$obs_tmp/mlt_opt_digests.txt" || {
  echo "check.sh: mlt-opt flag output differs from scripts/mlt_opt_digests.txt" >&2
  exit 1
}
# Smoke mlt-sim: a simulated run whose output must pass the interpreter's
# differential check (--verify-exec exits non-zero on a mismatch) and end
# in a well-formed --pass-stats JSON line, then a trimmed schedule search.
# (pluto-best is left out: on this kernel its full sweep takes ~30 s.)
dune exec bin/mlt_sim.exe -- examples/kernels/gemm.c --config mlt-blas \
  --verify-exec --pass-stats > "$obs_tmp/sim.out"
tail -n 1 "$obs_tmp/sim.out" > "$obs_tmp/sim_stats.json"
dune exec tools/json_check/json_check.exe -- "$obs_tmp/sim_stats.json" passes
dune exec bin/mlt_sim.exe -- examples/kernels/gemm.c --tune --quick \
  > /dev/null
# Smoke the multi-domain batch driver: the example manifest must compile
# cleanly on a 2-domain pool (domains time-share cores on small machines,
# so this checks safety, not speed) and produce a well-formed report with
# per-entry and aggregated pass stats (schema in docs/CONCURRENCY.md).
# --metrics + --progress ride along: the metrics snapshot must be strict
# JSON whose batch counters agree with the report (pinned harder in
# test/test_batch.ml), and the heartbeat must not perturb results.
dune exec bin/mlt_batch.exe -- examples/kernels/batch_manifest.json \
  --domains 2 --quiet --metrics "$obs_tmp/metrics.json" --progress \
  --output "$obs_tmp/batch"
dune exec tools/json_check/json_check.exe -- "$obs_tmp/batch/report.json" \
  entries passes
dune exec tools/json_check/json_check.exe -- "$obs_tmp/metrics.json" metrics
grep -q '"name":"mlt_batch_entries_done"' "$obs_tmp/metrics.json" || {
  echo "check.sh: metrics file lacks the batch counters" >&2
  exit 1
}
# Scheduling must never reach the emitted files: the same manifest on one
# domain writes exactly the files the 2-domain pool wrote (only
# report.json differs, by its wall-clock and worker fields).
dune exec bin/mlt_batch.exe -- examples/kernels/batch_manifest.json \
  --domains 1 --quiet --output "$obs_tmp/batch-seq"
diff -r -x report.json "$obs_tmp/batch-seq" "$obs_tmp/batch" || {
  echo "check.sh: 1-domain and 2-domain batch outputs differ" >&2
  exit 1
}
# Smoke the compilation cache: a second run over the same manifest and
# cache directory must be served entirely from the cache (cache_misses 0)
# and write byte-identical per-entry IR (docs/CACHE.md).
dune exec bin/mlt_batch.exe -- examples/kernels/batch_manifest.json \
  --domains 2 --quiet --cache-dir "$obs_tmp/cache" \
  --output "$obs_tmp/batch-cold"
dune exec bin/mlt_batch.exe -- examples/kernels/batch_manifest.json \
  --domains 2 --quiet --cache-dir "$obs_tmp/cache" --resume \
  --output "$obs_tmp/batch-warm"
dune exec tools/json_check/json_check.exe -- \
  "$obs_tmp/batch-warm/report.json" entries passes
grep -q '"cache_misses":0' "$obs_tmp/batch-warm/report.json" || {
  echo "check.sh: warm cache run was not served from the cache" >&2
  exit 1
}
grep -q '"cache_hits":0,' "$obs_tmp/batch-warm/report.json" && {
  echo "check.sh: warm cache run reported zero hits" >&2
  exit 1
}
diff -r -x report.json "$obs_tmp/batch-cold" "$obs_tmp/batch-warm" || {
  echo "check.sh: cache-served IR differs from freshly compiled IR" >&2
  exit 1
}
# The simulator must reproduce all 170 Figure-9 simulate cells bit for
# bit: regenerate the expectations into the temp dir and compare every
# column but the last (column 15, cost_us, is a wall-clock hint). The
# committed perfbench files are only read.
_build/default/perfbench/bench.exe --regen-expected "$obs_tmp/sim.tsv" \
  2> "$obs_tmp/regen.log" || {
  cat "$obs_tmp/regen.log" >&2
  echo "check.sh: regenerating the simulate expectations failed" >&2
  exit 1
}
cut -f1-14 "$obs_tmp/sim.tsv" > "$obs_tmp/sim.cells"
cut -f1-14 perfbench/expected_simulate.tsv > "$obs_tmp/sim.expected"
diff "$obs_tmp/sim.expected" "$obs_tmp/sim.cells" || {
  echo "check.sh: simulated Figure-9 cells differ from perfbench/expected_simulate.tsv" >&2
  exit 1
}
