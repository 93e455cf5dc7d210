(** Structural IR verification.

    Checks, for an operation tree (usually a module):
    - every operand is defined before use (lexical dominance within the
      single-block structured-control-flow subset this IR supports);
    - region-carrying ops end their blocks with the right terminator
      (per the {!Dialect} registry);
    - registered per-op verifiers pass.

    Raises {!Support.Diag.Error} with a message naming the offending op,
    located at the op's {!Core.nearest_loc} (an unlocated error from a
    per-op verifier, or an [Invalid_argument] from a missing or mistyped
    attribute, is raised there too). Ops built in memory carry no
    location, so their messages have no position. *)

val verify : Core.op -> unit

(** [verify_result op] is the [Result] form used by tests. *)
val verify_result : Core.op -> (unit, string) result
