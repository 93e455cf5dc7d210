(** Dialect registry: per-operation verification and metadata.

    Each dialect module registers its operation definitions with a
    top-level [let () = Dialect.register_all defs], and the dialect
    libraries are linked whole ([-linkall]), so every linked dialect is
    registered at module initialisation, before [main] runs and before
    any second domain exists. Afterwards the table is only read, so
    lookups (on the verifier hot path) take no lock. The {!Verifier}
    consults the registry; unregistered operations only get generic
    structural checks. *)

type op_def = {
  od_name : string;  (** fully qualified, e.g. ["linalg.matmul"] *)
  od_verify : Core.op -> unit;  (** raise {!Support.Diag.Error} on failure *)
  od_terminator : bool;
  od_summary : string;
}

val def :
  ?verify:(Core.op -> unit) ->
  ?terminator:bool ->
  ?summary:string ->
  string ->
  op_def

(** [register_all ds] installs (or replaces) each definition. Call it
    only from a dialect module's initialisation. *)
val register_all : op_def list -> unit

val lookup : string -> op_def option
val is_terminator : Core.op -> bool

(** All registered op names, sorted — used by documentation and tests. *)
val registered_ops : unit -> string list

(** [dialect_of "affine.for"] is ["affine"]. *)
val dialect_of : string -> string
