(** Batch-compilation manifests: the list of inputs a [mlt-batch] run
    shards across its domain pool (the ManifestLoader role of the
    sharded-pipeline architecture in docs/CONCURRENCY.md).

    A manifest is a JSON file:

    {v
    { "entries": [
        {"name": "gemm", "path": "gemm.c", "pipeline": "mlt-linalg"},
        {"name": "tuned", "path": "gemm.c", "script": "schedule.mlir"},
        {"name": "inline", "source": "void f(...) {...}",
         "script_source": "builtin.module { \"transform.tile\"() {sizes = [16]} : () -> () }"},
        {"name": "pre-raised", "path": "kernel.mlir"}
    ] }
    v}

    Each entry names its input (a mini-C or [.mlir] file path, resolved
    relative to the manifest file, or inline mini-C [source]) and the
    schedule to run: a built-in pipeline configuration
    ({!Mlt.Pipeline.config_name} spelling, default ["mlt-linalg"]), a
    transform-script file ([script], resolved relative to the manifest),
    or inline script IR text ([script_source]) — at most one of the
    three (docs/TRANSFORM.md). *)

type source = File of string | Inline of string

type entry = {
  e_name : string;
  e_source : source;
  e_schedule : Mlt.Pipeline.schedule;
}

type t

(** [load path] parses a JSON manifest; raises [Support.Diag.Error] with
    a descriptive message on malformed input. File paths are resolved
    relative to [path]'s directory. Transform scripts are parsed and
    validated at load time, so schedule errors surface before any domain
    spawns. *)
val load : string -> t

(** Build a manifest programmatically (mlt-batch does when a flag
    overrides every entry's schedule). *)
val of_entries : entry list -> t

(** Entries in manifest order. *)
val entries : t -> entry list

val size : t -> int

(** The entry's program text (reads the file for [File] sources). *)
val source_text : entry -> string

(** True when the entry is textual IR ([.mlir]) rather than mini-C. *)
val is_ir : entry -> bool

(** Parses a {!Mlt.Pipeline.config_name} spelling
    (= {!Mlt.Pipeline.config_of_name}). *)
val config_of_name : string -> Mlt.Pipeline.config option
