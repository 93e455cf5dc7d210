(** The shared [run_meta] block stamped into every machine-readable
    artifact (--pass-stats and --metrics files) so a recorded
    perf point is attributable to the environment that produced it —
    and so [trace_stats --diff] can refuse to compare artifacts written
    under different schemas. *)

(** Version of the recorded-artifact schemas. Bump whenever a field of
    the pass-stats / metrics JSON layouts changes meaning, so
    offline diffs across the change fail loudly instead of comparing
    apples to oranges. *)
val schema_version : int

(** [json ?domains ()] — the block as a {!Support.Json} object:
    [schema_version], [domains] (default
    [Domain.recommended_domain_count ()]), [ocaml_version], [hostname].
    Hostname lookup failures degrade to ["unknown"], never raise. *)
val json : ?domains:int -> unit -> Json.t

(** [schema_version_of j] — the [run_meta.schema_version] member of a
    parsed artifact, [None] when the artifact predates run_meta
    stamping. *)
val schema_version_of : Json.t -> int option
