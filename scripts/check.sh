#!/bin/sh
# Tier-1 gate: everything must build and every test must pass.
set -eu
cd "$(dirname "$0")/.."
dune build
# Build-once values live in Support.Once cells, never in a Stdlib lazy:
# two domains forcing the same unforced lazy at once make one of them
# raise CamlinternalLazy.Undefined (docs/CONCURRENCY.md).
if grep -rnw lazy lib --include='*.ml'; then
  echo "check.sh: lib/ uses lazy; build once with Support.Once instead" >&2
  exit 1
fi
dune runtest
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
# The examples print PASS or FAIL for their equivalence checks but exit 0
# either way, and two of them print synthesized TDS text: their stdout
# must match the committed file byte for byte.
for example in quickstart matrix_chain tensor_contraction custom_tactic \
  progressive_raising; do
  echo "== $example"
  "_build/default/examples/$example.exe"
done > "$obs_tmp/examples.txt"
diff scripts/examples_stdout.txt "$obs_tmp/examples.txt" || {
  echo "check.sh: examples output differs from scripts/examples_stdout.txt" >&2
  exit 1
}
# Table II and the ablations are deterministic (machine model, no wall
# clock): their --quick output must match the committed file byte for
# byte.
dune exec bench/main.exe -- table2 ablation --quick > "$obs_tmp/table2.txt"
diff scripts/table2_ablation_quick.txt "$obs_tmp/table2.txt" || {
  echo "check.sh: bench table2/ablation output differs from scripts/table2_ablation_quick.txt" >&2
  exit 1
}
# Figures 8 and 9 and section 5.1 come from the machine model and the
# tactic counts alone: their --quick output (fig9's 160 cells at two
# decimals, pluto-best's searched winners included) must match the
# committed file byte for byte.
dune exec bench/main.exe -- fig8 sec51 fig9 --quick > "$obs_tmp/figs.txt"
diff scripts/fig8_sec51_fig9_quick.txt "$obs_tmp/figs.txt" || {
  echo "check.sh: bench fig8/sec51/fig9 output differs from scripts/fig8_sec51_fig9_quick.txt" >&2
  exit 1
}
# Smoke the observability surface: --trace must produce a loadable Chrome
# trace (non-empty traceEvents) and --pass-stats a well-formed JSON report
# (schemas in docs/OBSERVABILITY.md).
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
# in a well-formed --pass-stats JSON line, the full pluto-best sweep
# through the tuner (each distinct schedule simulated once, so ~10 s on
# this kernel) whose winning script must pass the same check, with its
# pass-stats line, then a trimmed schedule search.
dune exec bin/mlt_sim.exe -- examples/kernels/gemm.c --config mlt-blas \
  --verify-exec --pass-stats > "$obs_tmp/sim.out"
tail -n 1 "$obs_tmp/sim.out" > "$obs_tmp/sim_stats.json"
dune exec tools/json_check/json_check.exe -- "$obs_tmp/sim_stats.json" passes
dune exec bin/mlt_sim.exe -- examples/kernels/gemm.c --config pluto-best \
  --verify-exec --pass-stats > "$obs_tmp/sim_best.out"
tail -n 1 "$obs_tmp/sim_best.out" > "$obs_tmp/sim_best_stats.json"
dune exec tools/json_check/json_check.exe -- "$obs_tmp/sim_best_stats.json" \
  passes
dune exec bin/mlt_sim.exe -- examples/kernels/gemm.c --tune --quick \
  > /dev/null
# The simulator's metrics account for gemm's accesses under clang-O3:
# mlt_sim_accesses is the logical access count (4 * 256^3 + 256^2), and
# the innermost entries that repeat their predecessor's lines and
# outcome are replayed, so mlt_sim_replayed_accesses is not 0.
dune exec bin/mlt_sim.exe -- examples/kernels/gemm.c --config clang-O3 \
  --metrics "$obs_tmp/sim_metrics.json" > /dev/null
dune exec tools/json_check/json_check.exe -- "$obs_tmp/sim_metrics.json" \
  metrics
grep -q '"name":"mlt_sim_accesses","type":"counter",[^}]*"value":67174400}' \
  "$obs_tmp/sim_metrics.json" || {
  echo "check.sh: mlt_sim_accesses is not gemm's 67174400 logical accesses" >&2
  exit 1
}
grep -q '"name":"mlt_sim_replayed_accesses","type":"counter",[^}]*"value":[1-9]' \
  "$obs_tmp/sim_metrics.json" || {
  echo "check.sh: mlt-sim replayed no loop entry of the clang-O3 gemm" >&2
  exit 1
}
# The tensor contraction's walk moves B's column a line or more per
# iteration while A and C stay in their lines: the L1 probes that ran
# must be below half of its 1720320 logical accesses, since the
# iterations after a window's first probe only the lines that move.
dune exec bin/mlt_sim.exe -- examples/kernels/contraction.c --config clang-O3 \
  --metrics "$obs_tmp/contraction_metrics.json" > /dev/null
grep -q '"name":"mlt_sim_accesses","type":"counter",[^}]*"value":1720320}' \
  "$obs_tmp/contraction_metrics.json" || {
  echo "check.sh: mlt_sim_accesses is not the contraction's 1720320 logical accesses" >&2
  exit 1
}
probes="$(sed -n 's/.*"name":"mlt_sim_l1_probes","type":"counter",[^}]*"value":\([0-9]*\)}.*/\1/p' \
  "$obs_tmp/contraction_metrics.json")"
if [ -z "$probes" ] || [ "$probes" -ge 860160 ]; then
  echo "check.sh: the contraction probed ${probes:-no} L1 lines, not below half of 1720320 accesses" >&2
  exit 1
fi
# Figure 9's ab-cad-dcb repeats its whole (c, d) sub-walk for 16
# consecutive b under clang-O3, a level above the innermost loop: at
# least half of its 4195328 logical accesses must be replayed from a
# recorded outcome (3407872 are; replaying innermost entries alone
# replays none).
dune exec bin/mlt_sim.exe -- examples/kernels/ab_cad_dcb.c --config clang-O3 \
  --metrics "$obs_tmp/ab_cad_dcb_metrics.json" > /dev/null
grep -q '"name":"mlt_sim_accesses","type":"counter",[^}]*"value":4195328}' \
  "$obs_tmp/ab_cad_dcb_metrics.json" || {
  echo "check.sh: mlt_sim_accesses is not ab-cad-dcb's 4195328 logical accesses" >&2
  exit 1
}
replayed="$(sed -n 's/.*"name":"mlt_sim_replayed_accesses","type":"counter",[^}]*"value":\([0-9]*\)}.*/\1/p' \
  "$obs_tmp/ab_cad_dcb_metrics.json")"
if [ -z "$replayed" ] || [ "$replayed" -lt 2097664 ]; then
  echo "check.sh: ab-cad-dcb replayed ${replayed:-no} accesses, not at least half of 4195328" >&2
  exit 1
fi
# Figure 9's ab-acd-dbc under clang-O3 walks B's column 4 KB a step,
# in one L1 set, and that column repeats from entry to entry while A's
# row moves on: B's misses are replayed and only A and C probed
# (movers-only replays). At least 761280 of its 4195328 logical
# accesses must be replayed; without movers-only replays none is.
dune exec bin/mlt_sim.exe -- examples/kernels/ab_acd_dbc.c --config clang-O3 \
  --metrics "$obs_tmp/ab_acd_dbc_metrics.json" > /dev/null
grep -q '"name":"mlt_sim_accesses","type":"counter",[^}]*"value":4195328}' \
  "$obs_tmp/ab_acd_dbc_metrics.json" || {
  echo "check.sh: mlt_sim_accesses is not ab-acd-dbc's 4195328 logical accesses" >&2
  exit 1
}
replayed="$(sed -n 's/.*"name":"mlt_sim_replayed_accesses","type":"counter",[^}]*"value":\([0-9]*\)}.*/\1/p' \
  "$obs_tmp/ab_acd_dbc_metrics.json")"
if [ -z "$replayed" ] || [ "$replayed" -lt 761280 ]; then
  echo "check.sh: ab-acd-dbc replayed ${replayed:-no} accesses, not at least 761280" >&2
  exit 1
fi
# Truncated mini-C must fail as a located Diag.Error (exit 124) whose
# location names the input file: exit 125 (an uncaught exception) or an
# anonymous "<string>" location fails the gate, in mlt-opt and mlt-sim.
# The cut ends the file inside a statement, right after "C[i]".
head -c 270 examples/kernels/gemm.c > "$obs_tmp/cut.c"
for tool in mlt_opt mlt_sim; do
  status=0
  "_build/default/bin/$tool.exe" "$obs_tmp/cut.c" > /dev/null \
    2> "$obs_tmp/cut.err" || status=$?
  if [ "$status" -ne 124 ] \
    || ! grep -q "^mlt-[a-z]*: $obs_tmp/cut.c:[0-9]*:[0-9]*: " "$obs_tmp/cut.err" \
    || grep -qF "<string>" "$obs_tmp/cut.err"; then
    cat "$obs_tmp/cut.err" >&2
    echo "check.sh: $tool on truncated input exited $status without a located error naming the file" >&2
    exit 1
  fi
done
# A --tactics file is held to the same rule: TDS (TableGen) syntax is not
# TDL, so its ':' must fail as a Diag.Error located in the .tdl file
# (exit 124), never at an anonymous "<tdl>" location.
printf 'def X : Tactic<C(i) += A(i) * B(i), [matmulBuilder]>;\n' \
  > "$obs_tmp/tds.tdl"
status=0
_build/default/bin/mlt_opt.exe examples/kernels/gemm.c \
  --tactics "$obs_tmp/tds.tdl" > /dev/null 2> "$obs_tmp/tdl.err" || status=$?
if [ "$status" -ne 124 ] \
  || ! grep -q "^mlt-opt: $obs_tmp/tds.tdl:1:7: " "$obs_tmp/tdl.err" \
  || grep -qF "<tdl>" "$obs_tmp/tdl.err"; then
  cat "$obs_tmp/tdl.err" >&2
  echo "check.sh: mlt-opt --tactics on TDS text exited $status without an error at its ':' in the file" >&2
  exit 1
fi
# IR text is held to the same rule: a '-' before an affine map variable
# (it once escaped the parser as Failure "int_of_string", exit 125) must
# make mlt-opt fail as a Diag.Error located in the .mlir file (exit 124).
cat > "$obs_tmp/neg_dim.mlir" <<'EOF'
builtin.module {
  func.func @c(%A: memref<4x6xf32>, %B: memref<6x3xf32>, %C: memref<4x3xf32>) {
    linalg.contract indexing_maps = [affine_map<(d0, d1, d2) -> (-d0, d2)>, affine_map<(d0, d1, d2) -> (d2, d1)>, affine_map<(d0, d1, d2) -> (d0, d1)>] ins(%A, %B : memref<4x6xf32>, memref<6x3xf32>) outs(%C : memref<4x3xf32>)
    func.return
  }
}
EOF
status=0
_build/default/bin/mlt_opt.exe "$obs_tmp/neg_dim.mlir" > /dev/null \
  2> "$obs_tmp/neg_dim.err" || status=$?
if [ "$status" -ne 124 ] \
  || ! grep -q "^mlt-opt: $obs_tmp/neg_dim.mlir:[0-9]*:[0-9]*: " "$obs_tmp/neg_dim.err"; then
  cat "$obs_tmp/neg_dim.err" >&2
  echo "check.sh: mlt-opt on a '-d0' affine map exited $status without a located error naming the file" >&2
  exit 1
fi
# A contraction whose operands disagree on a dim (A is 4x6, B 5x3) must
# fail verification as a Diag.Error located at the op in the .mlir file
# (exit 124), in plain mlt-opt, under --verify-exec and under
# --lower-linalg: blas.sgemm and affine.matmul once escaped the
# interpreter as an uncaught Invalid_argument (exit 125), and the
# linalg.contract printed and lowered with exit 0.
for op in \
  'blas.sgemm %A, %B, %C : memref<4x6xf32>, memref<5x3xf32>, memref<4x3xf32>' \
  'affine.matmul %A, %B, %C : memref<4x6xf32>, memref<5x3xf32>, memref<4x3xf32>' \
  'linalg.contract indexing_maps = [affine_map<(d0, d1, d2) -> (d0, d2)>, affine_map<(d0, d1, d2) -> (d2, d1)>, affine_map<(d0, d1, d2) -> (d0, d1)>] ins(%A, %B : memref<4x6xf32>, memref<5x3xf32>) outs(%C : memref<4x3xf32>)'; do
  kernel="mismatch_${op%% *}"
  cat > "$obs_tmp/$kernel.mlir" <<EOF
builtin.module {
  func.func @g(%A: memref<4x6xf32>, %B: memref<5x3xf32>, %C: memref<4x3xf32>) {
    $op
    func.return
  }
}
EOF
  for mode in "" --verify-exec --lower-linalg; do
    status=0
    _build/default/bin/mlt_opt.exe "$obs_tmp/$kernel.mlir" $mode > /dev/null \
      2> "$obs_tmp/$kernel.err" || status=$?
    if [ "$status" -ne 124 ] \
      || ! grep -q "^mlt-opt: $obs_tmp/$kernel.mlir:3:5: " "$obs_tmp/$kernel.err"; then
      cat "$obs_tmp/$kernel.err" >&2
      echo "check.sh: mlt-opt $mode on $kernel.mlir exited $status without an error at the op in the file" >&2
      exit 1
    fi
  done
done
# A subscript that divides by a loop iv is not affine, and an
# arith.floordivsi by zero cannot run: under --verify-exec both once
# escaped as an uncaught exception (exit 125). The parser must reject the
# first and the interpreter the second, each as a Diag.Error located in
# the .mlir file (exit 124).
cat > "$obs_tmp/div_iv.mlir" <<'EOF'
builtin.module {
  func.func @k(%A: memref<16xf32>) {
    affine.for %i = 0 to 4 {
      affine.for %j = 0 to 4 {
        %0 = affine.load %A[%i floordiv %j] : memref<16xf32>
        affine.store %0, %A[%i] : memref<16xf32>
        affine.yield
      }
      affine.yield
    }
    func.return
  }
}
EOF
cat > "$obs_tmp/div_zero.mlir" <<'EOF'
builtin.module {
  func.func @k(%A: memref<16xf32>) {
    affine.for %i = 0 to 4 {
      %z = arith.constant 0 : index
      %r = arith.floordivsi %i, %z : index
      %0 = affine.load %A[%r] : memref<16xf32>
      affine.store %0, %A[%i] : memref<16xf32>
      affine.yield
    }
    func.return
  }
}
EOF
for kernel in div_iv div_zero; do
  status=0
  _build/default/bin/mlt_opt.exe "$obs_tmp/$kernel.mlir" --verify-exec \
    > /dev/null 2> "$obs_tmp/$kernel.err" || status=$?
  if [ "$status" -ne 124 ] \
    || ! grep -q "^mlt-opt: $obs_tmp/$kernel.mlir:[0-9]*:[0-9]*: " "$obs_tmp/$kernel.err"; then
    cat "$obs_tmp/$kernel.err" >&2
    echo "check.sh: mlt-opt --verify-exec on $kernel.mlir exited $status without a located error naming the file" >&2
    exit 1
  fi
done
# Every loop transform asks one dependence test (Affine.Dependence):
# these legal programs must keep their semantics under every loop
# schedule. skew, mv and alias once miscompiled when tiled; dist and
# dist2 when MET distributed their loops.
cat > "$obs_tmp/skew.c" <<'EOF'
void skew(float A[65][65]) {
  for (int i = 0; i < 64; ++i)
    for (int j = 0; j < 64; ++j)
      A[i+1][j] = A[i][j+1] + 1.0;
}
EOF
cat > "$obs_tmp/mv.c" <<'EOF'
void mv(float A[16][16], float x[16]) {
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j)
      x[i] += A[i][j] * x[j];
}
EOF
cat > "$obs_tmp/alias.c" <<'EOF'
void alias(float B[16][16], float C[16][16]) {
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j)
      for (int k = 0; k < 16; ++k)
        C[i][j] += C[i][k] * B[k][j];
}
EOF
cat > "$obs_tmp/dist.c" <<'EOF'
void dist(float A[1], float B[16], float C[16]) {
  for (int i = 0; i < 16; ++i) {
    A[0] = C[i] * 2.0;
    B[i] = A[0] + 1.0;
  }
}
EOF
cat > "$obs_tmp/dist2.c" <<'EOF'
void dist2(float A[17], float B[16], float D[16]) {
  for (int i = 0; i < 16; ++i) {
    A[i] = 2.0;
    B[i] = D[i] * 3.0;
    D[i] = A[i+1] + 1.0;
  }
}
EOF
for kernel in skew mv alias dist dist2; do
  for flags in "--config pluto-default" "--config pluto-best" "--tile 8" \
    "--fuse maxfuse --tile 4"; do
    status=0
    # shellcheck disable=SC2086
    _build/default/bin/mlt_opt.exe "$obs_tmp/$kernel.c" $flags --verify-exec \
      > /dev/null 2> "$obs_tmp/$kernel.err" || status=$?
    if [ "$status" -ne 0 ]; then
      cat "$obs_tmp/$kernel.err" >&2
      echo "check.sh: mlt-opt $flags --verify-exec on $kernel.c exited $status" >&2
      exit 1
    fi
  done
done
# A schedule the simulator cannot time must fail as a Diag.Error located
# in the input file (exit 124): lower_affine leaves scf.for loops, which
# the simulator rejects at the loop's source position.
printf 'builtin.module {\n  "transform.lower_affine"() : () -> ()\n}\n' \
  > "$obs_tmp/lower_affine.mlir"
status=0
_build/default/bin/mlt_sim.exe examples/kernels/gemm.c \
  --transform-script "$obs_tmp/lower_affine.mlir" > /dev/null \
  2> "$obs_tmp/scf.err" || status=$?
if [ "$status" -ne 124 ] \
  || ! grep -q "^mlt-sim: examples/kernels/gemm.c:[0-9]*:[0-9]*: " "$obs_tmp/scf.err"; then
  cat "$obs_tmp/scf.err" >&2
  echo "check.sh: mlt-sim on an scf.for schedule exited $status without an error located in the input file" >&2
  exit 1
fi
# A transform step that cannot handle a loop must fail at that loop:
# pluto-default tiles only zero-based loops, so a loop from 1 exits 124
# with the loop's position in the input file.
sed 's/i = 0;/i = 1;/' examples/kernels/gemm.c > "$obs_tmp/gemm_from1.c"
grep -q 'i = 1;' "$obs_tmp/gemm_from1.c"
status=0
_build/default/bin/mlt_sim.exe "$obs_tmp/gemm_from1.c" --config pluto-default \
  > /dev/null 2> "$obs_tmp/from1.err" || status=$?
if [ "$status" -ne 124 ] \
  || ! grep -q "^mlt-sim: $obs_tmp/gemm_from1.c:[0-9]*:[0-9]*: .*tile: " "$obs_tmp/from1.err"; then
  cat "$obs_tmp/from1.err" >&2
  echo "check.sh: pluto-default on a loop from 1 exited $status without an error located in the input file" >&2
  exit 1
fi
# An access past the end of its array must fail as a Diag.Error located
# in the input file (exit 124), within seconds: in the interpreter
# (--verify-exec, --execute) and in the simulator, whose pipeline
# rejects the input before any schedule runs, so the tiled schedules
# (pluto-default, pluto-best) fail as fast as clang-O3. gemm.c's i loop
# runs to 25600 over 256-row arrays. Under SIGKILL a hang exits 137,
# never 124.
sed 's/i < 256;/i < 25600;/' examples/kernels/gemm.c > "$obs_tmp/gemm_oob.c"
grep -q 'i < 25600;' "$obs_tmp/gemm_oob.c"
for run in "mlt_opt --verify-exec" "mlt_sim --execute" "mlt_sim --config clang-O3" \
  "mlt_sim --config pluto-default" "mlt_sim --config pluto-best"; do
  set -- $run
  status=0
  timeout -s KILL 60 "_build/default/bin/$1.exe" "$obs_tmp/gemm_oob.c" "$2" \
    ${3:+"$3"} > /dev/null 2> "$obs_tmp/oob.err" || status=$?
  if [ "$status" -ne 124 ] \
    || ! grep -q "^mlt-[a-z]*: $obs_tmp/gemm_oob.c:[0-9]*:[0-9]*: " "$obs_tmp/oob.err"; then
    cat "$obs_tmp/oob.err" >&2
    echo "check.sh: $run on an out-of-bounds gemm exited $status without an error located in the input file" >&2
    exit 1
  fi
done
# --print-ir-after must reject a name that matches no pass of the
# pipeline (exit 124) and list the pass names it would accept.
status=0
_build/default/bin/mlt_opt.exe examples/kernels/gemm.c \
  --raise-affine-to-linalg --print-ir-after=transform.raise > /dev/null \
  2> "$obs_tmp/after.err" || status=$?
if [ "$status" -ne 124 ] \
  || ! grep -qF "transform.raise[linalg]" "$obs_tmp/after.err"; then
  cat "$obs_tmp/after.err" >&2
  echo "check.sh: --print-ir-after with an unknown pass exited $status without listing the pass names" >&2
  exit 1
fi
# Every dialect registers itself when its module initialises, so
# --list-ops must list an op of each of the seven dialect modules.
_build/default/bin/mlt_opt.exe --list-ops > "$obs_tmp/ops.txt"
for op in arith.addf memref.load scf.for affine.for linalg.contract \
  blas.sgemm transform.tile; do
  grep -q "^$op " "$obs_tmp/ops.txt" || {
    echo "check.sh: mlt-opt --list-ops does not list $op" >&2
    exit 1
  }
done
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
# Warm hits read and decode blobs outside the cache lock: four domains
# sharing the handle must still serve every entry and write the same files.
dune exec bin/mlt_batch.exe -- examples/kernels/batch_manifest.json \
  --domains 4 --quiet --cache-dir "$obs_tmp/cache" \
  --output "$obs_tmp/batch-warm4"
grep -q '"cache_misses":0' "$obs_tmp/batch-warm4/report.json" || {
  echo "check.sh: 4-domain warm cache run was not served from the cache" >&2
  exit 1
}
diff -r -x report.json "$obs_tmp/batch-warm" "$obs_tmp/batch-warm4" || {
  echo "check.sh: 4-domain and 2-domain warm cache outputs differ" >&2
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
