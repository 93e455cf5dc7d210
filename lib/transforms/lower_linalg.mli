(** Progressive lowering of Linalg operations to affine loop nests —
    the default Linalg code-generation path of MLT-Linalg (§5.2).

    Each operation is replaced by its {!Linalg.Lowering} nest, the one
    the interpreter runs: a contraction's canonical loop nest from its
    {!Ir.Structured} maps, and for [linalg.reshape] a copy whose input
    subscripts delinearize the row-major offset (floordiv/mod affine
    maps). Tiling
    (the optimization Linalg "primarily performs" at the paper's
    timeframe) is applied separately by {!Loop_tile}. *)

(** Rewrite patterns, one per Linalg op. *)
val patterns : unit -> Ir.Rewriter.pattern list

(** [run root] lowers every linalg op under [root] to affine loops. *)
val run : Ir.Core.op -> unit

(** [run_tiled ~size root]: the MLT-Linalg code-generation path — every
    Linalg op lowers to loops that are then cache-tiled with [size]
    (only the loops produced by the lowering; surrounding code is left
    untouched, as the real Linalg path only transforms its own ops). *)
val run_tiled : size:int -> Ir.Core.op -> unit
