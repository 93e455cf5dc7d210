(** Raising from SCF to the affine dialect — the paper's footnote 1:
    "Multi-Level Tactics can also lift from SCF".

    [scf.for] loops whose bounds and step are [arith.constant]s become
    [affine.for]; [memref.load]/[memref.store] whose indices are built
    from induction variables, constants and [arith] index arithmetic get
    their affine access maps re-synthesized (the inverse of
    {!Lower_affine}'s expansion). Loops containing non-raisable
    constructs are left at the SCF level. *)

open Ir

(** The raising patterns (loop raising and access-map re-synthesis), for
    composing into combined progressive-raising sets. *)
val patterns : unit -> Rewriter.pattern list

(** Returns the number of raised operations. *)
val run : Core.op -> int
