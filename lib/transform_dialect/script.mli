(** Transform scripts: building, printing, parsing and destructuring
    sequences of {!Ops} operations.

    The canonical carrier is a [builtin.module] whose single block holds
    transform ops in application order. Because every op uses the
    generic print form, scripts round-trip through the ordinary
    {!Ir.Printer}/{!Ir.Parser} pair — a schedule is IR text a user can
    write, version and pass to [mlt-opt --transform-script=FILE] or a
    batch manifest. *)

open Ir

(** The structured view of one transform op. [Canonicalize b] enables
    fast-math folds when [b]; [Lower_linalg (Some s)] takes the
    cache-tiled path. *)
type step =
  | Tile of int list
  | Interchange
  | Fuse of Transforms.Loop_fuse.heuristic
  | Unroll of int
  | Lower_affine
  | Lower_linalg of int option
  | Blis_schedule of Transforms.Blis_schedule.blocking
  | Raise of string
  | Canonicalize of bool
  | Delinearize
  | Dce
  | Reorder_chains
  | To_blas

val equal_step : step -> step -> bool

(** A compact descriptor, e.g. ["transform.tile[32]"],
    ["transform.fuse[smartfuse]"] — used for pass names, tuner candidate
    labels and remarks. *)
val step_name : step -> string

(** The elaboration of one Pluto configuration: fuse, then (with
    [vectorize]) interchange, then (with [tile > 1]) tile — the exact
    sequence {!Transforms.Pluto.apply} runs, as script steps. *)
val of_pluto : Transforms.Pluto.config -> step list

(** [of_steps steps] builds the script module (the result verifies). *)
val of_steps : step list -> Core.op

(** [step_of_op op] destructures one transform op (verifying it);
    raises {!Support.Diag.Error} on anything else. *)
val step_of_op : Core.op -> step

(** [steps_of m] destructures a script module back into steps; raises
    {!Support.Diag.Error} if [m] is not a [builtin.module] holding only
    well-formed transform ops. *)
val steps_of : Core.op -> step list

(** [print m] — the script as parseable IR text (trailing newline). *)
val print : Core.op -> string

(** [parse ?file src] — parse and validate a script; errors carry
    [file] positions. *)
val parse : ?file:string -> string -> Core.op

(** [parse_steps ?file src] = [steps_of (parse ?file src)]. *)
val parse_steps : ?file:string -> string -> step list
