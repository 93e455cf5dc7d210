(** Dialect registry: per-operation verification and metadata.

    Dialect libraries register their operation definitions here (explicitly,
    via their [register ()] entry points). The {!Verifier} consults the
    registry; unregistered operations only get generic structural checks.

    The registry is {e write-once-before-parallelism}: lookups are
    unsynchronized (they sit on the verifier hot path), so all
    registration must happen before IR flows through a second domain.
    Each dialect's [register ()] forces a {!Support.Once} cell, which
    runs the registration once and never publishes a half-registered
    dialect; {!register} serializes writes from cells initializing on
    two domains at once. Multi-domain drivers additionally register
    every dialect eagerly on the calling domain before spawning workers
    (see [docs/CONCURRENCY.md]). *)

type op_def = {
  od_name : string;  (** fully qualified, e.g. ["linalg.matmul"] *)
  od_verify : Core.op -> unit;  (** raise {!Support.Diag.Error} on failure *)
  od_terminator : bool;
  od_summary : string;
}

(** [no_verify] is a verifier that accepts anything. *)
val no_verify : Core.op -> unit

val def :
  ?verify:(Core.op -> unit) ->
  ?terminator:bool ->
  ?summary:string ->
  string ->
  op_def

(** [register d] installs (or replaces) the definition, under a write
    mutex. *)
val register : op_def -> unit

val register_all : op_def list -> unit

val lookup : string -> op_def option
val is_registered : string -> bool
val is_terminator : Core.op -> bool

(** All registered op names, sorted — used by documentation and tests. *)
val registered_ops : unit -> string list

(** [dialect_of "affine.for"] is ["affine"]. *)
val dialect_of : string -> string
