(** The machine-model schedule autotuner: enumerate transform-script
    candidates, score each on {!Machine.Perf}'s trace-driven model, keep
    the best — the general search that replaces [Pluto_best]'s bespoke
    sequential sweep and backs pluto-best and [mlt-sim --tune].

    Determinism: candidates are evaluated into a slot array indexed by
    candidate position and the winner is the {e first strict minimum} in
    candidate order, so the result is independent of the domain count.
    Candidates fan out over {!Support.Pool} like the batch driver's
    entries (docs/CONCURRENCY.md). The search compiles every candidate's
    script on the calling domain before the fan-out, so workers only
    read shared state.

    Dedupe: each distinct transformed payload is simulated once. After
    apply and verify, a candidate is keyed on its printed function plus
    the function's attributes (the printer omits them, but the model
    reads [fast_math]); only the first candidate of each key — its
    lowest index — is simulated, and every other member takes a copy of
    that report. The simulator is deterministic, so every candidate's
    seconds equal a direct {!Machine.Perf.time_func} of its own payload,
    bit for bit, and the first strict minimum picks the same winner as
    simulating them all. A candidate that fails to apply or verify is
    neither keyed nor simulated. *)

type candidate = {
  c_name : string;
  c_steps : Transform.Script.step list;
}

(** Per-candidate outcome: modelled seconds, or the error that disqualified
    it (a candidate that fails to apply or verify loses, it does not
    abort the search). *)
type evaluation = {
  ev_candidate : candidate;
  ev_seconds : float option;
  ev_wall_seconds : float;
      (** Wall-clock cost of evaluating this candidate (apply + verify,
          plus the model for a group's representative) — the tuner's own
          latency, recorded whether or not the candidate survived. Never
          part of the scoring. *)
  ev_error : string option;
}

(** The [--pass-stats] summary of a search (docs/OBSERVABILITY.md). *)
type stats = {
  t_candidates : int;  (** size of the space *)
  t_evaluated : int;
      (** candidates that compiled, verified and timed (a copied report
          counts) *)
  t_simulated : int;
      (** simulator runs: distinct keys among the candidates that
          compiled and verified *)
  t_best_seconds : float;
  t_eval_latency : Ir.Metrics.histogram_snapshot;
      (** Distribution of [ev_wall_seconds] over all candidates
          ({!Ir.Metrics} log buckets); also observed into the
          [mlt_tune_eval_seconds] registry histogram when metrics are
          enabled. *)
}

type outcome = {
  o_best : candidate;
  o_best_index : int;  (** position in the searched candidate list *)
  o_best_report : Machine.Perf.report;
  o_stats : stats;
  o_evaluations : evaluation list;  (** searched order *)
}

(** Largest constant trip count under a function — the knob that bounds
    tile-size grids to useful values. *)
val max_trip_count : Ir.Core.op -> int

(** The Pluto sweep ({!Transforms.Pluto.sweep_configs}) as transform
    scripts, in sweep order with identical elaborations — the space that
    makes the tuner's winner byte-identical to the legacy sweep's. *)
val pluto_space : max_trip:int -> candidate list

(** BLIS-blocking candidates for a GEMM-shaped kernel: raise to
    [affine.matmul], then either keep the library-modelled op or lower
    through the packed schedule over an [mc/nc/kc] grid. *)
val blis_space : ?quick:bool -> unit -> candidate list

(** [pluto_space] plus [blis_space]: tile sizes, interchange, fusion and
    blocking — the [mlt-sim --tune] search space.
    [quick] trims both grids for smoke runs. *)
val gemm_space : ?quick:bool -> max_trip:int -> unit -> candidate list

(** [search ~machine ~translate candidates] evaluates every candidate on
    a fresh [translate ()] payload and returns the winner. [domains]
    sizes the {!Support.Pool} (default 1). Raises {!Support.Diag.Error}
    when the space is empty or no candidate survives. *)
val search :
  ?domains:int ->
  machine:Machine.Machine_model.t ->
  translate:(unit -> Ir.Core.op) ->
  candidate list ->
  outcome
