(** The multi-domain batch compiler: fans a {!Manifest} out over a
    {!Support.Pool} of OCaml domains, compiles every entry through its configured
    {!Mlt.Pipeline}, isolates per-entry faults, and aggregates results
    deterministically (docs/CONCURRENCY.md describes the state model
    that makes the domain pool sound; docs/CACHE.md the compilation
    cache below).

    Roles, after the docudactyl HPC pipeline: manifest loading
    ({!Manifest}), the domain pool ({!run}), fault handling
    (per-entry — a crashing input fails its own manifest entry only),
    content-addressed caching with per-entry checkpoint commits
    ({!Cache}), output ({!write_outputs}), and result
    aggregation (manifest order, so reports are independent of domain
    scheduling). *)

type status = Done | Failed of string

type entry_result = {
  r_name : string;
  r_config : string;  (** schedule name (pipeline config or script) *)
  r_shard : int;
      (** the pool worker that compiled or served it — scheduling
          dependent, so never part of a signature or an output path *)
  r_status : status;
  r_cached : bool;  (** served from the compilation cache *)
  r_ir : string;  (** printed IR; [""] when failed *)
  r_seconds : float;
  r_match_attempts : int;  (** rewriter counter delta for this entry *)
  r_rewrites : int;
  r_summary : Ir.Pass.summary list;  (** per-pass stats for this entry *)
  r_remarks : string list;  (** captured remarks, emission order *)
}

type report = {
  rp_domains : int;
  rp_wall_seconds : float;
  rp_cache_enabled : bool;
  rp_cache_hits : int;  (** entries served from the cache *)
  rp_cache_misses : int;  (** entries compiled (0 when cache disabled) *)
  rp_results : entry_result list;  (** manifest order, all entries *)
  rp_summary : Ir.Pass.summary list;
      (** per-entry summaries merged in manifest order
          ({!Ir.Pass.merge_summaries}) — deterministic, schedule-independent *)
}

val ok_count : report -> int
val failed_count : report -> int

(** [run ~domains manifest] compiles every entry. [domains] (default 1,
    clamped to the entry count) sets the {!Support.Pool} size: each
    worker claims the next uncompiled entry; worker 0 runs on the
    calling domain, the rest on spawned domains. With [domains = 1] no
    domain is spawned — the sequential oracle the tests compare
    against. Every payload module is erased once printed, so a run
    leaves the calling domain's region registry as it found it.
    [capture_remarks]
    (default false) installs a per-entry remark sink and records the
    rendered remarks in the result (off by default: an installed sink
    makes tactics compute near-miss explanations, which costs compile
    time).

    With [cache], each entry is first looked up by content address
    (source text + pipeline/pattern-set identity + remark-capture mode);
    hits are served without compiling, misses compile and then commit —
    and each commit is a checkpoint: a killed run re-invoked with the
    same cache serves every committed entry and recompiles only the
    rest. Cached entries reproduce the original's IR byte-for-byte and
    its {!result_signature} exactly. One handle may be shared by all
    worker domains.

    Faults: any exception an entry raises ([Diag.Error] or otherwise) is
    caught at the entry boundary and recorded as [Failed]; the run and
    every other entry complete normally. Failed entries are never
    cached. A cache lookup that fails for any reason falls back to
    compiling; a failed commit warns on stderr and leaves the entry
    intact.

    [progress] (default false) spawns a stderr heartbeat on its own
    ticker domain: done/failed/cached counts, rate, and ETA, redrawn in
    place on a tty and emitted as change-only lines otherwise. Purely
    wall-clock observability — nothing it reads or prints flows into
    results, reports, or {!result_signature}.

    When {!Ir.Metrics.enabled}, a run also records per-worker entry
    latency histograms ([mlt_batch_worker<N>_entry_seconds]) and the
    [mlt_batch_entries_{done,failed,cached}] counters — bumped from the
    same aggregation as the report, so the two artifacts agree. *)
val run :
  ?domains:int ->
  ?capture_remarks:bool ->
  ?progress:bool ->
  ?cache:Cache.t ->
  Manifest.t ->
  report

(** Deterministic comparison keys: summaries and results rendered
    {e without} wall-clock fields, so a 4-domain run can be asserted
    equal to the sequential oracle — and a cache-served run to a fresh
    one. Wall-clock seconds and GC deltas are {e excluded} by
    construction (pinned by a regression test in test/test_batch.ml). *)
val summary_signature : Ir.Pass.summary list -> string

val result_signature : entry_result -> string

(** Sum of per-entry wall-clock seconds across all workers (the CPU-time
    view to set against [wall_seconds]); the report's
    ["total_entry_seconds"] member. Wall-clock only — never part of a
    signature. *)
val total_entry_seconds : report -> float

(** The whole report as one JSON object (schema in
    docs/CONCURRENCY.md), rendered by {!Support.Json.to_string}. *)
val report_json : report -> string

(** [write_outputs ~dir rp] writes each successful entry's IR to
    [dir/III-name.mlir] ([III] the zero-padded manifest index —
    sanitized names are not unique) and the JSON report to
    [dir/report.json], creating directories as needed. All files commit
    through {!Support.Atomic_io} — a kill mid-write never leaves a torn
    artifact. *)
val write_outputs : dir:string -> report -> unit
