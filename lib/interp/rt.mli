(** The interpreter's runtime substrate: the one error channel, signed
    integer division semantics, and argument/loop-shape validation. The
    staged engine ({!Compile}) and the tests' reference interpreter both
    call it, so they fail the same way.

    Failures are {!Support.Diag.Error}s prefixed ["interp: "] and located
    at the offending op ({!Ir.Core.nearest_loc}); affine maps the engine
    cannot stage are rejected by {!Affine.Stage}. *)

(** [error_at op fmt ...] raises {!Support.Diag.Error} located at [op]. *)
val error_at : Ir.Core.op -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Signed floor-division semantics, shared with affine expression
    folding (see {!Ir.Affine_expr.floordiv}): correct for negative
    dividends {e and} divisors. [floordivsi op x y] and
    [remsi op x y] raise an error located at [op] when [y = 0]. *)

val floordivsi : Ir.Core.op -> int -> int -> int
val remsi : Ir.Core.op -> int -> int -> int

(** [check_loop_shape op] returns the loop body block of an
    [affine.for]/[scf.for], raising an eager, descriptive error when the
    loop carries iter_args (results or extra block arguments) — which
    the interpreter does not support — instead of letting the results
    surface later as a misleading "no runtime binding" failure. *)
val check_loop_shape : Ir.Core.op -> Ir.Core.block

(** [validate_args f args] checks arity and static argument shapes of a
    [func.func] against the supplied buffers; errors are located at [f]. *)
val validate_args : Ir.Core.op -> Buffer.t list -> unit

(** [index_error op b dim x] fails the access [op], whose index [x] is
    out of [b]'s dimension [dim], with an error located at [op] naming
    the index, the extent and the dimension: the interpreter's verdict
    on such an access. *)
val index_error : Ir.Core.op -> Buffer.t -> int -> int -> 'a
