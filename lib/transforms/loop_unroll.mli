(** Loop unrolling by a constant factor, with a remainder loop for
    non-divisible trip counts — the classic low-level transformation a
    code generator applies below tiling (MLIR's
    [affine-loop-unroll]). *)

open Ir

(** [unroll_loop loop ~factor] rewrites one constant-bound unit-step
    [affine.for] in place (a main loop stepping by [factor] with the body
    replicated, plus a remainder loop). No-op (returns [false]) when
    [factor < 2], the bounds are not constant, the step is not 1, or the
    trip count is below the factor. *)
val unroll_loop : Core.op -> factor:int -> bool

(** [unroll_innermost root ~factor] unrolls every innermost loop under
    [root]; returns the number of loops unrolled. *)
val unroll_innermost : Core.op -> factor:int -> int
