(** The [blas] dialect: calls into the (modelled) vendor-optimized library.

    MLT-Blas replaces Linalg operations with these calls (§5.2); the machine
    model charges each one an analytical library time plus the constant
    dynamic-link overhead the paper measures (≈1.5 ms for atax). Semantics
    and verifiers are the corresponding Linalg ops': [sgemm], [sgemv] and
    [sconv2d] are the contractions whose indexing maps {!Ir.Structured}
    states, and [stranspose]/[sreshape_copy] are checked like
    [linalg.transpose]/[linalg.reshape]. *)

open Ir

(** Every op name of this dialect. *)
val names : string list

val sgemm : Builder.t -> Core.value -> Core.value -> Core.value -> Core.op
val sgemv : Builder.t -> Core.value -> Core.value -> Core.value -> Core.op

(** MKL-DNN-style convolution primitive: [sconv2d I W O]. *)
val sconv2d : Builder.t -> Core.value -> Core.value -> Core.value -> Core.op

val stranspose :
  Builder.t -> perm:int array -> Core.value -> Core.value -> Core.op

val sreshape_copy :
  Builder.t -> grouping:int list list -> Core.value -> Core.value -> Core.op

val is_blas : Core.op -> bool
