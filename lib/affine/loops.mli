(** Loop-nest utilities over the affine dialect, shared by the structural
    matchers, the tiling transform and the trace generator. *)

open Ir

(** Operations of a loop body excluding the terminating [affine.yield]. *)
val body_ops : Core.op -> Core.op list

(** [perfect_nest op] walks inwards from an [affine.for]: as long as the
    body consists of exactly one nested [affine.for] (plus the yield),
    descends. Returns the loops from outermost to innermost. *)
val perfect_nest : Core.op -> Core.op list

(** [nest_with_body op] is [(loops, ops)] where [ops] is the innermost
    body (without yield). *)
val nest_with_body : Core.op -> Core.op list * Core.op list

(** Induction variables of a nest, outermost first. *)
val nest_ivs : Core.op list -> Core.value list

(** [top_level_loops func] lists the [affine.for] ops directly in the entry
    block of a function. *)
val top_level_loops : Core.op -> Core.op list

(** [all_loops root] lists every [affine.for] nested under [root],
    pre-order. *)
val all_loops : Core.op -> Core.op list

(** [nest_trip_counts loops] — constant trip counts, outermost first;
    [None] if any loop has non-constant bounds. *)
val nest_trip_counts : Core.op list -> int list option

(** [access_stride_wrt iv op]: derivative of the access's element offset
    with respect to [iv] for an [affine.load]/[affine.store] over a
    statically shaped memref, or [None] when the subscripts are
    non-linear in [iv]. *)
val access_stride_wrt : Core.value -> Core.op -> int option

(** [vectorizable_wrt ?fast_math iv ops]: every affine access in [ops]
    has stride 1 or 0 in [iv], and no store is invariant in [iv] unless
    [fast_math] (an invariant store is a reduction, which SIMD lanes
    only compute by reassociating). The one rule behind the machine
    model's vectorized loops and the vectorizing interchange. *)
val vectorizable_wrt : ?fast_math:bool -> Core.value -> Core.op list -> bool
