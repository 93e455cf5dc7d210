(** Dead-code elimination, including dead-buffer elimination: a locally
    allocated buffer whose value is never read can be removed along with
    the operations that only write it (matrix-chain reordering leaves such
    buffers behind). Conservative: function arguments are always live. *)

open Ir

(** Returns the number of erased operations. *)
val run : Core.op -> int

(** The pure-scalar subset of DCE as a benefit-0 rewrite pattern, for
    composing into combined greedy sets (dead index arithmetic left by a
    nest-consuming raise would otherwise block structural matching on
    sibling nests). Dead buffers and empty loops still need {!run}. *)
val pattern : unit -> Rewriter.pattern
