(** Textual IR output, in an MLIR-flavoured concrete syntax.

    Operations with well-known names (func, affine, scf, arith, memref,
    linalg, blas dialects) print in a pretty custom form; anything else
    falls back to the generic
    [%r = "name"(%operands) {attrs} : (operand types) -> (result types)]
    form. {!Parser} accepts exactly what this module prints, giving a
    round-trip property that the tests enforce. *)

(** [op_to_string op] prints a whole operation tree (typically a module
    or a function); nested ops end in a newline.

    The emitter writes straight into one [Buffer.t]
    ([Buffer.add_string]/[add_char]; types, attributes and affine maps
    append themselves through their [add_to_buffer]), with no [Format]
    engine in between. Its bytes are the ones the earlier
    [Format]-based printer produced.

    [debug_locs] (default false) appends a [loc(...)] trailer to every
    op that has a known source location or a provenance chain:
    [loc("gemm.c":4:3)] for frontend ops, and
    [loc(derived "GEMM" from ["gemm.c":2:3, ...])] for ops stamped by a
    rewrite ([mlt-opt --print-debug-locs]). Trailers are not part of the
    parseable syntax, so the round-trip property holds only for the
    default form. *)
val op_to_string : ?debug_locs:bool -> Core.op -> string

(** [debug_value v] renders a value for diagnostics (hint + internal id);
    names are not the printer's stable SSA names. *)
val debug_value : Core.value -> string
