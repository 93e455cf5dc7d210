(** Loop unrolling by a constant factor, with a remainder loop for
    non-divisible trip counts — the classic low-level transformation a
    code generator applies below tiling (MLIR's
    [affine-loop-unroll]). *)

open Ir

(** [unroll_innermost root ~factor] unrolls every innermost loop under
    [root]; returns the number of loops unrolled. *)
val unroll_innermost : Core.op -> factor:int -> int
