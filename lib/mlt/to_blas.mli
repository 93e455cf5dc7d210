(** The MLT-Blas second pass (§5.2): replace Linalg operations with calls
    to the vendor-optimized library. *)

open Ir

val patterns : unit -> Rewriter.pattern list

(** [run root] — returns the number of converted operations. Linalg ops
    with no library counterpart (e.g. [linalg.contract], which the TTGT
    tactics decompose before this pass) raise {!Support.Diag.Error}. *)
val run : Core.op -> int
