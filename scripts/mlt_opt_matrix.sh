#!/bin/sh
# Runs mlt-opt over a fixed matrix of flag invocations and prints one
# "MD5  ARGS" line per invocation (the digest of the printed IR).
# scripts/check.sh compares the output with scripts/mlt_opt_digests.txt,
# so any change to the IR a flag combination prints fails the gate.
#
#   scripts/mlt_opt_matrix.sh [MLT_OPT]   # default: the dune build output
#
# Regenerate the committed list only for an intended IR change:
#   scripts/mlt_opt_matrix.sh > scripts/mlt_opt_digests.txt
set -eu
cd "$(dirname "$0")/.."
opt="${1:-_build/default/bin/mlt_opt.exe}"
k=examples/kernels
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run() {
  "$opt" "$@" > "$tmp/out" 2> /dev/null || echo "exit $?" >> "$tmp/out"
  printf '%s  %s\n' "$(md5sum < "$tmp/out" | cut -d' ' -f1)" "$*"
}

for kernel in gemm chain contraction; do
  src="$k/$kernel.c"
  # Each pass flag alone.
  for flags in \
    "--raise-scf-to-affine" "--delinearize" "--canonicalize" "--fast-math" \
    "--canonicalize --fast-math" "--raise-affine-to-affine" \
    "--raise-affine-to-linalg" "--reorder-chains" "--convert-linalg-to-blas" \
    "--lower-linalg" "--lower-linalg-tiled 32" "--fuse nofuse" \
    "--fuse smartfuse" "--fuse maxfuse" "--tile 32" "--lower-affine" "--dce"
  do
    # shellcheck disable=SC2086
    run "$src" $flags
  done
  # The README combinations and longer pipelines.
  for flags in \
    "--raise-affine-to-linalg --lower-linalg" \
    "--raise-affine-to-linalg --lower-linalg-tiled 16" \
    "--raise-affine-to-linalg --reorder-chains --convert-linalg-to-blas" \
    "--raise-affine-to-linalg --reorder-chains --convert-linalg-to-blas --lower-linalg --lower-affine --dce" \
    "--canonicalize --raise-affine-to-affine" \
    "--fuse smartfuse --lower-affine" \
    "--raise-affine-to-linalg --lower-linalg --fuse maxfuse --lower-affine --dce" \
    "--raise-affine-to-linalg --lower-linalg --fuse maxfuse --tile 16 --dce" \
    "--delinearize --canonicalize --fast-math --raise-affine-to-linalg --convert-linalg-to-blas" \
    "--raise-scf-to-affine --delinearize --canonicalize --raise-affine-to-affine --raise-affine-to-linalg --reorder-chains --convert-linalg-to-blas --lower-linalg --fuse smartfuse --lower-affine --dce" \
    "--raise-affine-to-linalg --lower-linalg --verify-each"
  do
    # shellcheck disable=SC2086
    run "$src" $flags
  done
  # A named configuration, alone and with flags appended.
  for flags in \
    "--config mlt-blas" \
    "--config mlt-blas --lower-affine --dce" \
    "--config mlt-linalg --tile 16" \
    "--config pluto-default --dce" \
    "--config pluto-best --dce" \
    "--config mlt-affine-blis --raise-affine-to-linalg" \
    "--config clang-O3 --raise-affine-to-linalg --convert-linalg-to-blas"
  do
    # shellcheck disable=SC2086
    run "$src" $flags
  done
done

# A failing invocation must keep failing: tiled bounds (min/max) have no
# SCF lowering.
run "$k/gemm.c" --tile 32 --lower-affine

# User tactics replace the built-in set of the --raise-affine-to-linalg
# step only; a config's own raising keeps the built-in set.
run "$k/contraction.c" --tactics "$k/ttgt.tdl" --raise-affine-to-linalg
run "$k/contraction.c" --tactics "$k/ttgt.tdl" --dump-tds --raise-affine-to-linalg
run "$k/gemm.c" --tactics "$k/ttgt.tdl" --raise-affine-to-linalg
run "$k/contraction.c" --tactics "$k/ttgt.tdl" --config mlt-blas --raise-affine-to-linalg

# Figure 8: the linearized Darknet GEMM raises only after delinearization.
for flags in \
  "--raise-affine-to-linalg" "--delinearize" \
  "--delinearize --raise-affine-to-linalg" \
  "--delinearize --raise-affine-to-linalg --convert-linalg-to-blas"
do
  # shellcheck disable=SC2086
  run "$k/darknet_gemm.c" $flags
done

# Two fusable nests with a fast-math fold: the example kernels give
# --fuse and --fast-math nothing to do.
cat > "$tmp/fusable.c" <<'EOF_C'
void fusable(float A[64][64], float B[64][64], float C[64][64]) {
  for (int i = 0; i < 64; ++i)
    for (int j = 0; j < 64; ++j)
      A[i][j] = B[i][j] * 0.0;
  for (int i = 0; i < 64; ++i)
    for (int j = 0; j < 64; ++j)
      C[i][j] = A[i][j] + B[i][j];
}
EOF_C
for flags in \
  "--canonicalize" "--canonicalize --fast-math" "--fuse nofuse" \
  "--fuse smartfuse" "--fuse maxfuse" "--tile 16" \
  "--fuse smartfuse --tile 16" "--fuse smartfuse --lower-affine --dce" \
  "--canonicalize --fast-math --fuse maxfuse --tile 16 --dce" \
  "--config pluto-default" "--config pluto-default --canonicalize --fast-math"
do
  # shellcheck disable=SC2086
  run "$tmp/fusable.c" $flags | sed "s|$tmp/||"
done

# IR input: raise SCF loops that mlt-opt itself lowered.
"$opt" "$k/gemm.c" --lower-affine > "$tmp/lowered.mlir"
for flags in \
  "--raise-scf-to-affine" \
  "--raise-scf-to-affine --raise-affine-to-linalg --convert-linalg-to-blas"
do
  # shellcheck disable=SC2086
  run "$tmp/lowered.mlir" $flags | sed "s|$tmp/||"
done

# Printer paths the flag matrix above does not reach: provenance trailers
# on raised ops (--print-debug-locs) and the per-pass IR snapshots of
# --print-ir-after-all (both on stdout).
for kernel in gemm chain contraction; do
  run "$k/$kernel.c" --raise-affine-to-linalg --print-debug-locs
done
run "$k/gemm.c" --canonicalize --raise-affine-to-linalg --reorder-chains \
  --convert-linalg-to-blas --print-ir-after-all
