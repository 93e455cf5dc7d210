(** The transform-script interpreter: applies a script's ops, in order,
    to a payload module (sequence semantics).

    Each step resolves through a registry keyed by op name, so higher
    layers can contribute implementations the core library cannot see
    (the [mlt] library registers [transform.raise]'s tactic sets,
    [transform.reorder_chains] and [transform.to_blas] from
    [Mlt.Pipeline.register_dialects]). The registry is
    write-once-before-parallelism like {!Ir.Dialect}: populate it on the
    spawning domain before worker domains interpret scripts.

    Observability: every step runs inside an {!Ir.Trace} span (category
    ["transform"]) and emits an [Analysis] remark when it applied to
    nothing — the per-op inapplicability note that makes a silently
    useless schedule debuggable. *)

open Ir

(** [register_step name impl] installs (or replaces) the implementation
    of op [name]. [impl t_op] runs once per script compilation and may
    precompute from [t_op]'s attributes (e.g. freeze a pattern set); the
    returned closure applies the step to a payload root and returns how
    many times it applied (0 = inapplicable). *)
val register_step : string -> (Core.op -> Core.op -> int) -> unit

(** Registered step names, sorted (built-ins register on first use). *)
val registered_steps : unit -> string list

(** A resolved step: label, source location (for remarks), and the
    applier. *)
type compiled = {
  c_name : string;
  c_loc : Support.Loc.t;
  c_apply : Core.op -> int;
}

(** [compile script] resolves every op of a script module; raises
    {!Support.Diag.Error} on a malformed script or an op with no
    registered implementation. Compilation is the moment to do it on a
    spawning domain: the returned closures are safe to share read-only
    with workers (frozen pattern sets included). *)
val compile : Core.op -> compiled list

(** [compile_steps steps] — {!compile} on a script module built from
    [steps]. *)
val compile_steps : Script.step list -> compiled list

(** [apply_step c payload] — one step, with its trace span and
    inapplicability remark; returns the application count. *)
val apply_step : compiled -> Core.op -> int

(** One {!Ir.Pass} per step (named {!Script.step_name}), for running a
    script under an instrumented pass manager. *)
val passes_of_steps : Script.step list -> Pass.t list

(** [run script payload] — compile and apply every step to [payload]
    (typically a function). The caller verifies the payload afterwards,
    as pipelines do. *)
val run : Core.op -> Core.op -> unit
