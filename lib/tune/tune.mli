(** The machine-model schedule autotuner: enumerate transform-script
    candidates, score each on {!Machine.Perf}'s trace-driven model, keep
    the best — the general search that replaces [Pluto_best]'s bespoke
    sequential sweep and backs pluto-best and [mlt-sim --tune].

    Determinism: candidates are evaluated into a slot array indexed by
    candidate position and the winner is the {e first strict minimum} in
    candidate order, so the result is independent of the domain count.
    Candidates fan out over {!Support.Pool} like the batch driver's
    entries (docs/CONCURRENCY.md). The search compiles every candidate's
    script and clones one translation per candidate on the calling
    domain before the fan-out, so workers only read shared state.

    Dedupe: each distinct transformed payload is evaluated once. After
    apply and verify, a candidate is keyed on its printed function plus
    the function's attributes (the printer omits them, but the model
    reads [fast_math]); only the first candidate of each key, its lowest
    index, is evaluated, and every other member takes a copy of that
    outcome. The simulator is deterministic, so a copied report equals
    a direct {!Machine.Perf.time_func} of the member's own payload, bit
    for bit. A candidate that fails to apply or verify is neither keyed
    nor simulated.

    Pruning: each group's {!Machine.Perf.lower_bound} is computed on the
    calling domain. The group with the smallest bound (the lowest index
    on a tie) is simulated first, as the incumbent; then only the groups
    whose bound is not strictly greater than the incumbent's seconds are
    simulated, and the rest are pruned. A bound never exceeds its
    group's seconds, so a pruned group is strictly slower than the
    incumbent: it can neither win nor tie, and the first strict minimum
    picks the same winner as simulating every group. Each decision is
    taken before the second fan-out, so every result and count is the
    same on any domain count. A group whose bound raises is simulated,
    and records [time_func]'s error. *)

type candidate = {
  c_name : string;
  c_steps : Transform.Script.step list;
}

(** Per-candidate outcome: modelled seconds, or the error that disqualified
    it (a candidate that fails to apply or verify loses, it does not
    abort the search), or neither when its group was pruned. *)
type evaluation = {
  ev_candidate : candidate;
  ev_seconds : float option;  (** [None] when pruned or failed *)
  ev_lower_bound : float option;
      (** the group's {!Machine.Perf.lower_bound}, for every candidate
          that applied and verified and whose bound did not raise *)
  ev_wall_seconds : float;
      (** Wall-clock cost of evaluating this candidate (apply + verify,
          plus the bound and any simulation for a group's
          representative) — the tuner's own
          latency, recorded whether or not the candidate survived. Never
          part of the scoring. *)
  ev_error : string option;
}

(** The [--pass-stats] summary of a search (docs/OBSERVABILITY.md). *)
type stats = {
  t_candidates : int;  (** size of the space *)
  t_evaluated : int;
      (** candidates that compiled, verified and were timed or pruned (a
          copied outcome counts) *)
  t_simulated : int;
      (** simulator runs: the keys, among the candidates that compiled
          and verified, whose group was not pruned *)
  t_pruned : int;
      (** pruned groups: [t_simulated + t_pruned] is the number of
          distinct keys *)
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

(** [pluto_space] plus BLIS-blocking candidates (raise to
    [affine.matmul], then keep the library-modelled op or lower through
    the packed schedule over an [mc/nc/kc] grid): tile sizes,
    interchange, fusion and blocking — the [mlt-sim --tune] search
    space.
    [quick] trims both grids for smoke runs. *)
val gemm_space : ?quick:bool -> max_trip:int -> unit -> candidate list

(** [search ~machine ~translate candidates] calls [translate] once,
    prepares every candidate on a {!Ir.Core.clone_op} of the result and
    returns the winner. [domains] sizes the {!Support.Pool} (default 1)
    of its two fan-outs: preparing the candidates, then simulating the
    groups that survive the incumbent. Raises {!Support.Diag.Error} when
    the space is empty or no candidate survives. *)
val search :
  ?domains:int ->
  machine:Machine.Machine_model.t ->
  translate:(unit -> Ir.Core.op) ->
  candidate list ->
  outcome
