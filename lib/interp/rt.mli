(** Shared runtime substrate of the two interpreter execution engines
    (the {!Eval} tree-walking oracle and the {!Compile} staged engine):
    the one error channel, engine selection, signed integer division
    semantics, and common argument/loop-shape validation.

    Both engines fail with a {!Support.Diag.Error} prefixed ["interp: "]
    and located at the offending op ({!Ir.Core.nearest_loc}); affine
    maps they cannot stage are rejected by {!Affine.Stage}. *)

(** [error_at op fmt ...] raises {!Support.Diag.Error} located at [op]. *)
val error_at : Ir.Core.op -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Which execution engine runs a function: [Walk] is the simple
    tree-walking oracle, [Compiled] the staged compile-to-closure engine.
    [Compiled] is the process-wide default; the differential tests pin
    engines explicitly. *)
type engine = Walk | Compiled

val default_engine : engine ref
val engine_name : engine -> string

(** Signed floor-division semantics shared by both engines (and by affine
    expression folding — see {!Ir.Affine_expr.floordiv}): correct for
    negative dividends {e and} divisors. [floordivsi op x y] and
    [remsi op x y] raise an error located at [op] when [y = 0]. *)

val floordivsi : Ir.Core.op -> int -> int -> int
val remsi : Ir.Core.op -> int -> int -> int

(** [check_loop_shape op] returns the loop body block of an
    [affine.for]/[scf.for], raising an eager, descriptive error when the
    loop carries iter_args (results or extra block arguments) — which
    neither engine supports — instead of letting the results surface
    later as a misleading "no runtime binding" failure. *)
val check_loop_shape : Ir.Core.op -> Ir.Core.block

(** [validate_args f args] checks arity and static argument shapes of a
    [func.func] against the supplied buffers; errors are located at [f]. *)
val validate_args : Ir.Core.op -> Buffer.t list -> unit

(** [index_error op b dim x] fails the access [op], whose index [x] is
    out of [b]'s dimension [dim], with an error located at [op] naming
    the index, the extent and the dimension: both engines' verdict on
    such an access. *)
val index_error : Ir.Core.op -> Buffer.t -> int -> int -> 'a
