(** Progressive lowering from the affine dialect to SCF + arith + memref —
    the next step down the pipeline of Figure 2 (Affine → SCF → ... →
    codegen). Bounds become SSA index values, access maps expand into
    explicit index arithmetic ([muli]/[addi]/[floordivsi]/[remsi]) and
    accesses become plain [memref.load]/[memref.store]. *)

open Ir

(** [run root] — raises {!Support.Diag.Error} on [affine.for] with
    non-constant multi-expression bounds (run tiling-free or fully
    constant-bounded IR through it; min/max bounds would need [scf.if]
    or index min/max ops, which this subset does not model). *)
val run : Core.op -> unit
