(** The transform-script interpreter: applies a script's ops, in order,
    to a payload module (sequence semantics).

    Compilation decodes each op into its {!Script.step} and turns the
    step into its applier with one static match over the step type:
    there is no registry and no init order to respect. Tiling, fusion,
    raising (all three sets), chain reordering and library-call
    conversion all live in {!Transforms}.

    Observability: every step runs inside an {!Ir.Trace} span (category
    ["transform"]) and emits an [Analysis] remark when it applied to
    nothing — the per-op inapplicability note that makes a silently
    useless schedule debuggable. *)

open Ir

(** A resolved step: label, source location (for remarks), and the
    applier, which returns how many times the step applied (0 =
    inapplicable). *)
type compiled = {
  c_name : string;
  c_loc : Support.Loc.t;
  c_apply : Core.op -> int;
}

(** [compile script] decodes and resolves every op of a script module;
    raises {!Support.Diag.Error} on a malformed script. Compilation is
    the moment to do it on a spawning domain: raising steps look up
    their frozen pattern sets here, and the returned closures are safe
    to share read-only with workers. *)
val compile : Core.op -> compiled list

(** [compile_steps steps] — {!compile} on a script module built from
    [steps]. *)
val compile_steps : Script.step list -> compiled list

(** [apply_step c payload] — one step, with its trace span and
    inapplicability remark; returns the application count. A
    {!Support.Diag.Error} the step raises with no position is re-raised
    at the payload's nearest location ({!Ir.Core.nearest_loc}), or at
    its first located op when it has none, its message prefixed by the
    step name. *)
val apply_step : compiled -> Core.op -> int

(** One {!Ir.Pass} per step (named {!Script.step_name}), for running a
    script under an instrumented pass manager. Errors are located as in
    {!apply_step}; the pass manager prefixes the pass name. *)
val passes_of_steps : Script.step list -> Pass.t list
