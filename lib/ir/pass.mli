(** Passes and an instrumented pass manager.

    The manager records, per executed pass: wall-clock seconds, op counts
    before/after, and the pattern-driver match/rewrite counters
    ({!Rewriter.counter_totals}) attributed to that pass. The §5.2
    compile-time overhead experiment reads the timings; the per-pass
    statistics back the observability flags of [mlt-opt]/[mlt-sim]
    ([--timing], [--pass-stats], [--print-ir-after-all]) described in
    [docs/OBSERVABILITY.md]. *)

type t = { name : string; run : Core.op -> unit }

val make : name:string -> (Core.op -> unit) -> t

(** GC activity attributed to one pass (or aggregated over a summary
    row): deltas of the owning domain's [Gc.quick_stat] counters taken
    around the pass body. Word counts stay [float] exactly as [Gc]
    reports them. Never part of {e any} signature or cache identity —
    allocation counts vary with GC settings and domain scheduling the
    same way wall-clock does. *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

val zero_gc : gc_delta

(** Field-wise sum — the merge used by {!merge_summaries}. *)
val add_gc : gc_delta -> gc_delta -> gc_delta

type timing = {
  pass_name : string;
  seconds : float;
  ops_before : int;
  ops_after : int;
  match_attempts : int;
      (** Pattern [p_apply] invocations during this pass. *)
  rewrites : int;  (** Successful pattern applications during this pass. *)
  gc : gc_delta;  (** Allocation/collection activity during this pass. *)
  pattern_stats : Rewriter.pattern_stat list;
      (** Per-pattern attempt/hit/activation deltas for this pass,
          restricted to the patterns that participated (a pattern counts
          as participating — [activations] — whenever a driver ran with it
          in the frozen set, even if op-indexed dispatch never attempted
          it, so every registered tactic of a raising pass is listed). *)
}

(** Which passes trigger an IR snapshot to the manager's sink after they
    run ([--print-ir-after-all] / [--print-ir-after=<name>]). [After_named]
    matches the pass name. *)
type snapshot_policy = No_snapshots | After_all | After_named of string list

type manager

(** [create_manager ()] — [ir_sink] receives snapshots (default: print to
    stdout with a [// ----- IR after pass ...] header). *)
val create_manager :
  ?verify_each:bool ->
  ?snapshot:snapshot_policy ->
  ?ir_sink:(pass_name:string -> ir:string -> unit) ->
  unit ->
  manager

val add : manager -> t -> unit
val add_all : manager -> t list -> unit

(** [run m root] executes the registered passes in order; with
    [verify_each] the verifier runs after every pass and failures name the
    culprit pass. A pass that raises still records its (partial) timing
    entry before the exception propagates. Statistics accumulate across
    multiple [run] calls (one {!timing} per pass per run); see
    {!summarize}. *)
val run : manager -> Core.op -> unit

val timings : manager -> timing list

(** Total seconds across recorded entries. *)
val total_seconds : manager -> float

val clear_timings : manager -> unit

(** [count_ops root] — number of ops in the tree rooted at [root]
    (including [root]); the metric behind [ops_before]/[ops_after]. *)
val count_ops : Core.op -> int

(** {2 Aggregation}

    When a manager is run repeatedly (e.g. one pipeline over many
    kernels), [summarize] folds the per-run entries into one row per
    pass name, in first-appearance order. *)

type summary = {
  s_name : string;
  s_runs : int;
  s_seconds : float;
  s_match_attempts : int;
  s_rewrites : int;
  s_ops_delta : int;  (** Sum of [ops_after - ops_before] over runs. *)
  s_gc : gc_delta;  (** GC deltas summed over runs. *)
  s_patterns : Rewriter.pattern_stat list;
      (** Per-pattern deltas summed over runs, first-appearance order. *)
}

val summarize : manager -> summary list

(** [merge_summaries a b] folds [b]'s rows into [a], merging rows with
    the same pass name (counters summed, per-pattern rows
    merged) and keeping first-appearance order. Deterministic: merging
    per-domain/per-input summaries in a fixed order (e.g. manifest order)
    yields the same aggregate as a sequential run, which is what the
    multi-domain batch driver relies on. [merge_summaries [] s] copies
    [s]; the operation is associative. *)
val merge_summaries : summary list -> summary list -> summary list

(** {2 Reports}

    The JSON schema is documented in [docs/OBSERVABILITY.md]. *)

(** Human-readable per-entry table (one row per pass per run). *)
val report_table : manager -> string

(** Per-entry JSON:
    [{"total_seconds":s,"passes":[{"name":...,"seconds":...,
    "ops_before":...,"ops_after":...,"match_attempts":...,
    "rewrites":...,"gc":{...},"patterns":[{"name":...,"attempts":...,
    "hits":...,"activations":...}, ...]}, ...]}]. *)
val report_json : manager -> string

(** Aggregated variants of the two reports (one row per pass). *)
val summary_table : manager -> string

val summary_json : manager -> string

(** The JSON array of summary rows alone (the ["passes"] field of
    {!summary_json}) as a {!Support.Json} value, for embedding
    aggregated cross-manager summaries in other reports (the batch
    driver's). *)
val summaries_json_value : summary list -> Support.Json.t

(** JSON round-trip for {!gc_delta}, shared with the batch cache payload
    so the two emitters cannot diverge. [gc_of_json] treats missing
    members as zero (payloads written before GC profiling carry none). *)
val gc_json : gc_delta -> Support.Json.t

val gc_of_json : Support.Json.t -> gc_delta

(** Inverse of one element of {!summaries_json_value}, for the batch
    cache payload. A missing ["gc"] member reads as {!zero_gc}; any
    other missing or ill-typed member raises [Failure]. *)
val summary_of_json : Support.Json.t -> summary
