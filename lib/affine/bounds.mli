(** The one bounds analysis: does a memory access stay inside its memref?

    [analyze] gives intervals to integer [arith.constant]s,
    [arith.addi]/[subi]/[muli]/[floordivsi]/[remsi], [affine.apply] and
    [affine.for]/[scf.for] ivs ([min]/[max] bound maps included); a
    subscript gets its expression's interval over its index operands,
    map dims bound to one value merged. Ends past [±2^30] are unknown.

    - Always an over-approximation. {e Proven in}: every subscript's
      values lie in [\[0, extent)].
    - Exact when every op around the access up to its [func.func] is an
      [affine.for] with constant bounds that runs, and the subscript is
      linear in their ivs: each iv ends at its last [lb + k·step] below
      [ub], and the subscript reaches both ends. {e Proven out}: such an
      interval leaves its dimension. *)

open Ir

type t

(** [analyze ops] — the intervals of the values defined in [ops] and the
    ops nested in them. *)
val analyze : Core.op list -> t

(** [interval t idx e] — an interval [(lo, hi)] holding every value of
    [e] when dim [d] is the value [idx.(d)] (an access's index operands;
    dims bound to one value merged), or [None] when unknown. *)
val interval : t -> Core.value array -> Affine_expr.t -> (int * int) option

(** [access op] — the memref, the subscripts over the index operands and
    those operands of an [affine.load]/[affine.store], or of a
    [memref.load]/[memref.store] (identity subscripts); else [None]. *)
val access :
  Core.op -> (Core.value * Affine_expr.t list * Core.value array) option

(** [proven_in t op]: [op] is an access and proven in. *)
val proven_in : t -> Core.op -> bool

(** [check_access ~who t op] raises {!Support.Diag.Error} located at [op]
    when [op] is an access proven out: ["WHO: OP index reaches V, out of
    bounds [0, EXTENT) at dim D"]. *)
val check_access : who:string -> t -> Core.op -> unit

(** [check_func f] — {!check_access} [~who:"bounds"] on every access of
    the [func.func] [f], in pre-order. *)
val check_func : Core.op -> unit
