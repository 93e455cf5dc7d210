(** Parser for the textual IR syntax emitted by {!Printer}.

    Accepts the printer's output (custom forms for the func, affine, scf,
    arith, memref, linalg and blas dialects plus the generic
    ["dialect.op"(...)] form without regions, with attributes of every
    {!Attr.t} kind), giving the round-trip property
    [parse (print ir) ≡ ir] that the tests enforce and letting [mlt-opt]
    consume [.mlir]-style files. The grammar is at the head of
    parser.ml. *)

(** [parse_module ?file src] — expects a top-level [builtin.module].
    Raises {!Support.Diag.Error} at a [file] position on any malformed
    input, verifier errors included; nothing else escapes. The result is
    verified. *)
val parse_module : ?file:string -> string -> Core.op
