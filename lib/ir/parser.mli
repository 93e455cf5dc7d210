(** Parser for the textual IR syntax emitted by {!Printer}.

    Accepts exactly the printer's output (custom forms for the func,
    affine, scf, arith, memref, linalg and blas dialects plus the generic
    ["dialect.op"(...)] form without regions), giving the round-trip
    property [parse (print ir) ≡ ir] that the tests enforce and letting
    [mlt-opt] consume [.mlir]-style files. *)

(** [parse_module ?file src] — expects a top-level [builtin.module].
    Raises {!Support.Diag.Error} on syntax errors. The result is
    verified. *)
val parse_module : ?file:string -> string -> Core.op
