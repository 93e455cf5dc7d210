(** Optimistic delinearization of rank-1 buffers — the pass the paper
    names as the fix for the missed Darknet callsites of Figure 8
    ("A delinearization pass in MLIR, as done in the LLVM polyhedral
    optimizer, can solve this issue", citing Grosser et al., ICS'15).

    For a rank-1 memref accessed only through subscripts of the shape
    [s*high + low] with [0 <= low < s] provably from the loop bounds, the
    buffer is retyped to [memref<(size/s) x s>] and every access map is
    split into the two-dimensional form — after which the ordinary 2-d
    GEMM tactic matches. Buffers whose accesses do not validate are left
    untouched (the analysis is optimistic but the rewrite is guarded). *)

open Ir

(** [run func] — returns the number of buffers delinearized. Callers of
    the function must pass correspondingly reshaped buffers afterwards
    (row-major data is unchanged). *)
val run : Core.op -> int
