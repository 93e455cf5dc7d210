(** Canonicalization patterns: algebraic identities ([x*1 -> x],
    [x+0 -> x]) and scalar constant folding, as MLIR's canonicalizer
    would run between dialect conversions. Raising benefits: a GEMM
    written with an explicit [alpha = 1.0] factor canonicalizes to the
    bare accumulation the tactic matches.

    The value-unsafe [x*0 -> 0] fold (wrong for NaN, +/-inf and -0.0) is
    gated behind [fast_math], which defaults to off. *)

open Ir

val patterns : ?fast_math:bool -> unit -> Rewriter.pattern list

(** Returns the number of pattern applications. *)
val run : ?fast_math:bool -> Core.op -> int
