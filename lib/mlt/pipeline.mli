(** End-to-end compilation pipelines for the five Figure-9 configurations
    plus the §5.1 affine-raising path, producing simulated performance on
    a machine model.

    Every pipeline starts from mini-C source, enters the IR through MET
    at the Affine level (with loop distribution), and ends in IR that
    {!Machine.Perf} can time: affine loops, library calls, or both.

    - [Clang_O3]      — the loops as written (general-purpose compiler).
    - [Pluto_default] — fusion [smartfuse] + tiling 32.
    - [Pluto_best]    — best of the tiling/fusion sweep on the model
                        ({!resolve_schedule}).
    - [Mlt_linalg]    — raise to Linalg, lower back through the default
                        (tiling) Linalg path.
    - [Mlt_blas]      — raise to Linalg, convert to vendor-library calls.
    - [Mlt_affine_blis] — §5.1: raise GEMM to [affine.matmul], lower via
                        the OpenBLAS/BLIS schedule model.

    Configurations are no longer hard-coded pass lists: each variant
    elaborates to a {!Transform.Script} ({!steps_of_config}) and every
    derived artifact — passes, cache identity, preparation — comes from
    interpreting that script. A {!schedule} generalizes [config] to
    user-supplied scripts ([--transform-script=FILE], batch-manifest
    [script] entries); see docs/TRANSFORM.md. *)

open Ir

type config =
  | Clang_O3
  | Pluto_default
  | Pluto_best
  | Mlt_linalg
  | Mlt_blas
  | Mlt_affine_blis

val config_name : config -> string

(** Every configuration, in {!config_name} display order. *)
val all_configs : config list

(** [config_of_name "mlt-blas"] — inverse of {!config_name}. *)
val config_of_name : string -> config option

val all_figure9_configs : config list

(** Does nothing. Every linked dialect registers its op definitions
    when its module initialises (see {!Ir.Dialect}); the stub remains
    only because the benchmark driver still calls it, and goes with the
    next benchmark change. *)
val register_dialects : unit -> unit

(** {2 Configs as transform scripts} *)

(** The configuration's elaboration to transform-script steps (empty for
    [Clang_O3]; [Pluto_best] elaborates like [Pluto_default] — the sweep
    needs a machine model, see {!resolve_schedule}). *)
val steps_of_config : config -> Transform.Script.step list

(** {2 Schedules}

    A schedule is what the drivers actually run: either a named built-in
    configuration or a custom transform script. *)

type schedule =
  | Config of config
  | Custom of { name : string; steps : Transform.Script.step list }

(** [schedule_of_steps steps] — a custom schedule. The default [name] is
    ["script:" ^ digest-prefix] of the printed script, so two textually
    identical scripts get the same display name. *)
val schedule_of_steps : ?name:string -> Transform.Script.step list -> schedule

(** [schedule_of_script_text src] — parse script IR text (errors carry
    [file] positions). *)
val schedule_of_script_text :
  ?name:string -> ?file:string -> string -> schedule

val schedule_name : schedule -> string
val schedule_steps : schedule -> Transform.Script.step list

(** {2 Derived artifacts} *)

(** [schedule_cache_identity s] — the pipeline + pattern-set identity
    string mixed into every compilation-cache key ({!Batch.Cache}): a
    version tag (bumped when transformation behavior changes in a way
    the script cannot express) and the {e printed transform script}.
    Because the script carries every parameter (tile sizes, BLIS
    blocking, fusion heuristic), two schedules with equal identity are
    promised to compile any source to identical IR — the v1 pass-name
    identity could not promise that. The schedule's display
    name is deliberately excluded: equal scripts share cache entries. *)
val schedule_cache_identity : schedule -> string

(** {2 Preparation} *)

(** [prepare_schedule schedule src] — parse, distribute, interpret the
    schedule's script; returns the module (one function). The result
    always verifies. With [pm] the passes register into (and record
    statistics in) the caller's manager — pass a fresh manager per
    invocation, since registration accumulates. [file] names [src] in
    error locations (default ["<string>"]), here and in the other
    entry points that translate mini-C. Before any pass runs, an access
    of the translated kernel that {!Affine.Bounds} proves out of its
    memref raises a located ["bounds: ..."] {!Support.Diag.Error}; a
    schedule keeps the set of accesses, so no schedule could fix it.
    {!search} and {!check_schedule_semantics} check the same, once per
    call. *)
val prepare_schedule :
  ?pm:Pass.manager -> ?file:string -> schedule -> string -> Core.op

(** {!prepare_schedule} starting from an already translated module. *)
val prepare_schedule_module :
  ?pm:Pass.manager -> schedule -> Core.op -> Core.op

(** {2 Search and pluto-best} *)

(** [search ~space machine src] — the one search from mini-C: translate
    [src], size the candidate space by {!Tune.max_trip_count} of its
    kernel ([space ~max_trip]), then {!Tune.search} on
    [Domain.recommended_domain_count ()] domains. [src] is translated
    once: each candidate is prepared on a {!Ir.Core.clone_op} of that
    translation, which prints as a fresh one. Pluto-best
    ({!resolve_schedule}) and [mlt-sim --tune] both search through
    here. *)
val search :
  ?file:string ->
  space:(max_trip:int -> Tune.candidate list) ->
  Machine.Machine_model.t ->
  string ->
  Tune.outcome

(** [resolve_schedule machine src s] — with a machine in hand,
    [Config Pluto_best] becomes [Custom] schedule named ["pluto-best"]
    whose steps are the winner of {!search} over {!Tune.pluto_space},
    returned with the search's outcome. Every other schedule comes back
    unchanged with [None].

    What pluto-best means therefore depends on the tool. mlt-sim
    resolves once per run, so [--verify-exec], [--execute], the
    simulated time and [--pass-stats] all describe the winning script.
    mlt-opt and mlt-batch have no machine model: there, and wherever
    [Config Pluto_best] is prepared directly ({!prepare_schedule},
    {!check_schedule_semantics}, {!schedule_cache_identity}), it
    elaborates like [Pluto_default]. *)
val resolve_schedule :
  ?file:string ->
  Machine.Machine_model.t ->
  string ->
  schedule ->
  schedule * Tune.outcome option

(** {2 Simulated timing} *)

(** [time_schedule_ext schedule machine src] — simulated report for the
    single kernel in [src], plus tuner statistics when the schedule
    triggered a search. The schedule is first {!resolve_schedule}d; for
    [Config Pluto_best] the report is the search's own report of the
    winner, and only with [pm] is the winning script prepared again, so
    the caller's (fresh) manager records its passes. Otherwise [pm]
    records the preparation pipeline's per-pass statistics. GFLOPS come
    from {!Machine.Perf.gflops} on the report. *)
val time_schedule_ext :
  ?pm:Pass.manager ->
  ?file:string ->
  schedule ->
  Machine.Machine_model.t ->
  string ->
  Machine.Perf.report * Tune.stats option

(** {2 Differential execution} *)

(** [check_schedule_semantics schedule src] — differential execution
    check: run the untransformed kernel and the schedule's full pipeline
    output on identical random inputs through the interpreter's one
    engine ({!Interp.Eval.run_func}) and compare every buffer. [src] is translated once: the schedule is
    prepared on a {!Ir.Core.clone_op} of the reference, as
    [mlt-opt --verify-exec] does, and {!Interp.Eval.equivalent} draws
    one input battery for both. The CLI's [--verify-exec] and the test
    suite use this to pin each pipeline to real execution semantics (not
    just the verifier's structural invariants). *)
val check_schedule_semantics :
  ?seed:int ->
  ?eps:float ->
  ?file:string ->
  schedule ->
  string ->
  bool

(** {2 Compile-time measurement (§5.2 overhead experiment)}

    Wall-clock seconds to run the full lowering pipeline over the given
    sources, without ([`Baseline]) and with ([`With_mlt]) the raising
    passes; [`Match_only] runs canonicalization plus the tactic matching
    (the idiom discovery the paper contrasts with IDL's constraint
    solving) — the same prefix [`With_mlt] executes, so the overhead
    comparison measures matching on identical IR. Tactic-set compilation
    happens at pass registration, outside the timed region, in every
    mode. Each mode is a transform-script step list, so the passes are
    named by {!Transform.Script.step_name}. With [pm] (fresh manager),
    per-pass statistics accumulate across all sources; read them with
    {!Pass.summarize}. *)
val compile_time :
  ?pm:Pass.manager ->
  [ `Baseline | `With_mlt | `Match_only ] ->
  string list ->
  float

(** {2 Figure 8: callsite detection} *)

(** [count_gemm_callsites ?delinearize src] — number of sites the GEMM
    tactic raises; with [delinearize] the optimistic delinearization pass
    (the paper's proposed fix for Darknet) runs first. *)
val count_gemm_callsites : ?delinearize:bool -> string -> int
