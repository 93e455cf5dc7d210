(** The Linalg dialect (buffer semantics): named linear-algebra operations
    raised to by Multi-Level Tactics and lowered via tiling or BLAS calls.

    Conventions (single-precision throughout, matching the evaluation):
    - [matmul A B C]: C(i,j) += A(i,k) * B(k,j)
    - [matvec A x y]: y(i) += A(i,j) * x(j)
    - [transpose ~perm A B]: B(i0..in) = A(perm applied), i.e.
      [B[idx] = A[permute idx]] with B's shape = A's shape permuted by
      [perm]: [shape_B.(d) = shape_A.(perm.(d))].
    - [reshape ~grouping A B]: B collapses (or expands, when B has higher
      rank) contiguous dimension groups of the row-major layout; a pure
      copy with reindexing.
    - [conv2d_nchw I W O]: O(n,f,h,w) += I(n,c,h+kh,w+kw) * W(f,c,kh,kw).
    - [contract ~maps ins out]: generic Einstein contraction
      out(map_out(d)) += in1(map_1(d)) * in2(map_2(d)).
    - [fill ~value C]: C = value everywhere. *)

open Ir

val register : unit -> unit

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
val contract_maps : Core.op -> Affine_map.t list

(** Inputs (all operands but the last) and output (last operand). *)
val ins : Core.op -> Core.value list

val out : Core.op -> Core.value

(** [reshape_check ~grouping in_shape out_shape] validates that collapsing
    [in_shape] by [grouping] yields [out_shape] (used by the verifier and
    by the TTGT builder synthesis). *)
val reshape_check :
  grouping:int list list -> int list -> int list -> bool

(** [transposed_shape perm shape]: shape of the transpose result. *)
val transposed_shape : int array -> int list -> int list
