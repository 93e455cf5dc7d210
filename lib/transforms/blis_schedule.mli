(** Executable lowering of [affine.matmul] through the OpenBLAS/BLIS
    schedule (§5.1's target, after Bondhugula's "High performance code
    generation in MLIR: an early case study with GEMM"):

    {v
    for jc step NC:                    // N-partition into L3-sized panels
      for pc step KC:                  // K-partition into L2-sized panels
        pack B[pc.., jc..] -> Bp       // contiguous KC x NC panel
        for ic step MC:                // M-partition into L1-sized blocks
          pack A[ic.., pc..] -> Ap     // contiguous MC x KC block
          for i, j:                    // macro kernel over the block
            for p:                     // micro loop, reads packed panels
              C[i][j] += Ap[i-ic][p-pc] * Bp[p-pc][j-jc]
    v}

    The packed copies give the micro kernel unit-stride, cache-resident
    operands — the structural essence of the BLIS design. Edge tiles use
    min-bounded loops, so arbitrary sizes work.

    The §5.1 *performance* path models this schedule analytically
    ({!Machine.Blas_model.blis_codegen_gemm_seconds}); this module makes
    the same schedule executable IR, used for semantic validation and for
    the trace-simulation ablation. *)

open Ir

(** Block sizes; defaults approximate BLIS on the modelled machines. *)
type blocking = { mc : int; nc : int; kc : int }

val default_blocking : blocking

(** Lower every [affine.matmul] under [root] to the packed schedule. *)
val run : ?blocking:blocking -> Core.op -> unit
