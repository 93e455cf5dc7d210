(** The Linalg dialect (buffer semantics): named linear-algebra operations
    raised to by Multi-Level Tactics and lowered via tiling or BLAS calls.

    Conventions (single-precision throughout, matching the evaluation):
    - [matmul], [matvec], [conv2d_nchw] and [contract] are contractions
      [out += in1 * in2] whose indexing maps {!Ir.Structured} states once;
      they write their last operand.
    - [transpose ~perm A B]: B(i0..in) = A(perm applied), i.e.
      [B[idx] = A[permute idx]] with B's shape = A's shape permuted by
      [perm]: [shape_B.(d) = shape_A.(perm.(d))].
    - [reshape ~grouping A B]: B collapses (or expands, when B has higher
      rank) contiguous dimension groups of the row-major layout; a pure
      copy with reindexing.
    - [fill ~value C]: C = value everywhere. *)

open Ir

(** Every op name of this dialect. *)
val names : string list

val matmul : Builder.t -> Core.value -> Core.value -> Core.value -> Core.op
val matvec : Builder.t -> Core.value -> Core.value -> Core.value -> Core.op

val transpose :
  Builder.t -> perm:int array -> Core.value -> Core.value -> Core.op

val reshape :
  Builder.t -> grouping:int list list -> Core.value -> Core.value -> Core.op

val conv2d_nchw :
  Builder.t -> Core.value -> Core.value -> Core.value -> Core.op

(** [contract b ~maps:[mA; mB; mC] a bv c]: the maps take the full
    iteration-space dims to each operand's subscripts. *)
val contract :
  Builder.t ->
  maps:Affine_map.t list ->
  Core.value ->
  Core.value ->
  Core.value ->
  Core.op

val fill : Builder.t -> value:float -> Core.value -> Core.op

val is_matmul : Core.op -> bool
val is_fill : Core.op -> bool

(** Any op of this dialect. *)
val is_linalg : Core.op -> bool

val transpose_perm : Core.op -> int array
val reshape_grouping : Core.op -> int list list

(** The verifiers of [linalg.transpose] and [linalg.reshape], which
    [blas.stranspose] and [blas.sreshape_copy] share: they read the same
    attributes. *)
val verify_transpose : Core.op -> unit

val verify_reshape : Core.op -> unit

(** [transposed_shape perm shape]: shape of the transpose result. *)
val transposed_shape : int array -> int list -> int list
