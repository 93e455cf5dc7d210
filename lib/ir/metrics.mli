(** Domain-safe runtime metrics: counters, gauges, and log-bucketed
    latency histograms.

    The registry follows the repo's domain-confinement discipline
    (docs/CONCURRENCY.md): metric {e descriptors} are process-global and
    write-once (registering the same name twice returns the same
    handle), while the {e cells} they update live in per-domain
    [Domain.DLS] shards — an update never takes a lock and never
    contends with another domain. {!snapshot} merges every domain's
    shard with the same associative, order-deterministic discipline as
    {!Pass.merge_summaries}: counters and histogram buckets sum, gauges
    take the maximum, and samples are sorted by metric name, so the
    merged result is independent of the domain count and of shard
    enumeration order.

    Metrics are {e disabled by default}: every update is a single
    [Atomic.get] and return, the same hot-path budget as the disabled
    {!Trace} sink stack (<50ns/call, asserted by test/test_metrics.ml's
    "disabled observe stays under 50 ns/call").
    The [--metrics=FILE] flag on mlt-opt/mlt-sim/mlt-batch/bench enables
    collection for the run and exports the snapshot on exit as strict
    {!Support.Json} (schema in docs/OBSERVABILITY.md). *)

type kind = Counter | Gauge | Histogram

(** A metric handle: cheap to store in a module-level [let]; the
    registration cost (a mutex + hashtable probe) is paid once. *)
type t

(** [counter name] registers (or finds) the counter [name].
    Raises {!Support.Diag.Error} if [name] is already registered with a
    different kind. Names should match [[a-zA-Z_][a-zA-Z0-9_]*]. *)
val counter : ?help:string -> string -> t

val gauge : ?help:string -> string -> t

(** Log-bucketed latency histogram over seconds: bucket 0 holds
    observations under 1ns (and non-positive values), bucket [i] holds
    [[2^(i-1), 2^i)] nanoseconds, and bucket 63 everything at or above
    [2^62] ns. Exact powers of two land in the bucket they lower-bound
    (pinned by test/test_metrics.ml). *)
val histogram : ?help:string -> string -> t

(** {2 Updates — no-ops (one atomic read) while disabled} *)

val incr : t -> unit
val add : t -> int -> unit

(** [set g v] — gauge assignment (last write on this domain wins;
    cross-domain merge takes the max). *)
val set : t -> float -> unit

(** [observe h seconds] — record one latency observation. *)
val observe : t -> float -> unit

(** [time h f] — run [f ()] and observe its wall-clock duration
    (observed even when [f] raises). When disabled this is exactly
    [f ()] — no clock is read. *)
val time : t -> (unit -> 'a) -> 'a

(** {2 Enablement} *)

val enabled : unit -> bool

(** Process-wide switch (an [Atomic.t] flag — any domain may flip it,
    all domains observe it). The CLI turns it on when [--metrics] is
    given. *)
val set_enabled : bool -> unit

(** {2 Snapshots and merging} *)

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_buckets : int array;  (** always {!bucket_count} entries *)
}

type value =
  | V_counter of int
  | V_gauge of float
  | V_histogram of histogram_snapshot

type sample = { s_metric : string; s_help : string; s_value : value }

val bucket_count : int

(** [bucket_of_seconds v] — the bucket index {!observe} files [v]
    under. Exposed for the boundary-edge-case tests. *)
val bucket_of_seconds : float -> int

(** Upper bound (exclusive) of bucket [i] in seconds; [infinity] for
    the overflow bucket. *)
val bucket_upper_seconds : int -> float

(** Every registered metric, merged across all domain shards, sorted by
    name. Registered-but-never-updated metrics appear with zero
    values. *)
val snapshot : unit -> sample list

(** {2 Exposition} *)

(** [{"run_meta":{...},"metrics":[...]}]; each sample carries [name],
    [type], [help] (when nonempty) and its value — counters/gauges a
    [value] member, histograms [count], [sum] and a [buckets] array of
    non-empty [{"le":upper,"count":n}] rows (the overflow bucket's [le]
    is the string ["+Inf"]). *)
val to_json_value : ?run_meta:Support.Json.t -> sample list -> Support.Json.t

(** The histogram payload alone ([count]/[sum]/[buckets]) — for
    embedding a {!histogram_snapshot} in another report (the
    [--pass-stats] [tune] member). *)
val histogram_snapshot_json : histogram_snapshot -> Support.Json.t

val to_json : ?run_meta:Support.Json.t -> sample list -> string

(** [write ~path samples] — atomic write ({!Support.Atomic_io}) of
    {!to_json} with a {!Support.Run_meta} block. *)
val write : path:string -> sample list -> unit

(** [parse_json j] — read back a metrics JSON document written by
    {!write}/{!to_json}; [Error] names the offending member. Used by
    [trace_stats] and the tests. *)
val parse_json : Support.Json.t -> (sample list, string) result

(** {2 Test support} *)

(** Zero every cell on every shard (descriptors stay registered). Tests
    only — concurrent updates during a reset are lost, not corrupted. *)
val reset : unit -> unit

(** The shards {!snapshot} folds: one per live domain that has recorded
    a metric, plus one that holds every exited domain's cells. *)
val shard_count : unit -> int
