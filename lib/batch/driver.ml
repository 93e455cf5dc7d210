type status = Done | Failed of string

type entry_result = {
  r_name : string;
  r_config : string;
  r_shard : int;
  r_status : status;
  r_cached : bool;
  r_ir : string;
  r_seconds : float;
  r_match_attempts : int;
  r_rewrites : int;
  r_summary : Ir.Pass.summary list;
  r_remarks : string list;
}

type report = {
  rp_domains : int;
  rp_wall_seconds : float;
  rp_cache_enabled : bool;
  rp_cache_hits : int;
  rp_cache_misses : int;
  rp_results : entry_result list;
  rp_summary : Ir.Pass.summary list;
}

let ok_count rp =
  List.length
    (List.filter (fun r -> r.r_status = Done) rp.rp_results)

let failed_count rp = List.length rp.rp_results - ok_count rp

(* ---- cache payloads ------------------------------------------------------ *)

module J = Support.Json

(* The artifact payload format: what a committed cache blob must carry to
   reconstruct an entry_result whose result_signature (and report row,
   wall-clock aside) is identical to a fresh compilation's. Bump together
   with any field change so old blobs read as misses, not as garbage.
   3: summaries carry per-pass GC deltas. *)
let payload_format = 3

exception Bad_payload

let jstr = function J.Str s -> s | _ -> raise Bad_payload
let jint v = match J.to_int v with Some i -> i | None -> raise Bad_payload
let jlist = function J.List l -> l | _ -> raise Bad_payload

let jfield key json =
  match J.member key json with Some v -> v | None -> raise Bad_payload

let payload_of_result r =
  J.Obj
    [
      ("format", J.num_int payload_format);
      ("pipeline", J.Str r.r_config);
      ("ir", J.Str r.r_ir);
      ("ir_digest", J.Str (Support.Digest.string r.r_ir));
      ("seconds", J.Num r.r_seconds);
      ("match_attempts", J.num_int r.r_match_attempts);
      ("rewrites", J.num_int r.r_rewrites);
      ("remarks", J.List (List.map (fun m -> J.Str m) r.r_remarks));
      ("passes", Ir.Pass.summaries_json_value r.r_summary);
    ]

(* Decode a committed payload back into a (cached) result for the entry
   at hand. Any shape mismatch — wrong format version, missing field,
   IR digest divergence — raises ([Bad_payload], or [Failure] from a
   malformed pass summary); the caller treats it as a miss and
   recompiles. *)
let result_of_payload ~entry ~worker ~seconds json =
  if jint (jfield "format" json) <> payload_format then raise Bad_payload;
  let ir = jstr (jfield "ir" json) in
  if
    not
      (String.equal (jstr (jfield "ir_digest" json)) (Support.Digest.string ir))
  then raise Bad_payload;
  {
    r_name = entry.Manifest.e_name;
    r_config = Mlt.Pipeline.schedule_name entry.Manifest.e_schedule;
    r_shard = worker;
    r_status = Done;
    r_cached = true;
    r_ir = ir;
    r_seconds = seconds;
    r_match_attempts = jint (jfield "match_attempts" json);
    r_rewrites = jint (jfield "rewrites" json);
    r_summary = List.map Ir.Pass.summary_of_json (jlist (jfield "passes" json));
    r_remarks = List.map jstr (jlist (jfield "remarks" json));
  }

(* The content address of an entry's artifact: everything that determines
   the compiled output (and the recorded remarks) must be in here —
   source text, source kind, pipeline + pattern-set identity, and whether
   a remark sink was installed during compilation. *)
let entry_key ~capture_remarks (e : Manifest.entry) src =
  Cache.key
    [
      "batch-entry";
      (if Manifest.is_ir e then "ir" else "c");
      Mlt.Pipeline.schedule_cache_identity e.Manifest.e_schedule;
      (if capture_remarks then "remarks" else "no-remarks");
      src;
    ]

(* ---- per-entry compilation (the FaultHandler boundary) ------------------ *)

(* Everything an entry does — reading its file, parsing, the whole pass
   pipeline, printing, cache lookup/commit — happens inside this
   function, and any exception it raises is converted into a [Failed]
   result. One crashing input therefore fails exactly its own manifest
   entry; the worker moves on to the next entry. *)
let compile_entry ~capture_remarks ~worker ?cache (e : Manifest.entry) =
  let t0 = Unix.gettimeofday () in
  let remarks_rev = ref [] in
  let attempts0, rewrites0 = Ir.Rewriter.counter_totals () in
  let with_remark_capture f =
    if capture_remarks then
      Ir.Remark.with_sink
        (fun r -> remarks_rev := Ir.Remark.to_string r :: !remarks_rev)
        f
    else f ()
  in
  let finish status ir summary =
    let attempts1, rewrites1 = Ir.Rewriter.counter_totals () in
    {
      r_name = e.Manifest.e_name;
      r_config = Mlt.Pipeline.schedule_name e.Manifest.e_schedule;
      r_shard = worker;
      r_status = status;
      r_cached = false;
      r_ir = ir;
      r_seconds = Unix.gettimeofday () -. t0;
      r_match_attempts = attempts1 - attempts0;
      r_rewrites = rewrites1 - rewrites0;
      r_summary = summary;
      r_remarks = List.rev !remarks_rev;
    }
  in
  (* Serve from the cache if we can. Lookup failures of any kind (bad
     payload, I/O error) fall through to a fresh compile — the cache can
     cost a recompilation, never a wrong answer or a crashed entry. *)
  let cached =
    match cache with
    | None -> None
    | Some c -> (
        let lookup () =
          let src = Manifest.source_text e in
          match Cache.find c (entry_key ~capture_remarks e src) with
          | None -> None
          | Some payload ->
              Some
                (result_of_payload ~entry:e ~worker
                   ~seconds:(Unix.gettimeofday () -. t0)
                   payload)
        in
        match lookup () with v -> v | exception _ -> None)
  in
  match cached with
  | Some r -> r
  | None -> (
      match
        with_remark_capture (fun () ->
            let src = Manifest.source_text e in
            let file =
              match e.Manifest.e_source with
              | Manifest.File path -> Some path
              | Manifest.Inline _ -> None
            in
            let m =
              if Manifest.is_ir e then Ir.Parser.parse_module ?file src
              else Met.Emit_affine.translate ?file src
            in
            let pm = Ir.Pass.create_manager () in
            let m =
              Mlt.Pipeline.prepare_schedule_module ~pm e.Manifest.e_schedule m
            in
            (src, Ir.Printer.op_to_string m ^ "\n", Ir.Pass.summarize pm))
      with
      | src, ir, summary ->
          let r = finish Done ir summary in
          (* Commit to the cache *after* the entry succeeded: this
             journal append is the checkpoint record — a killed run
             restarts and serves every committed entry without
             recompiling. A failed store degrades to a warning; the
             compiled entry itself is unaffected. *)
          (match cache with
          | None -> ()
          | Some c -> (
              let key = entry_key ~capture_remarks e src in
              try Cache.store c ~key (payload_of_result r)
              with exn ->
                Printf.eprintf
                  "mlt-batch: warning: cache store failed for %S: %s\n%!"
                  e.Manifest.e_name (Printexc.to_string exn)));
          r
      | exception Support.Diag.Error (loc, msg) ->
          finish (Failed (Support.Diag.to_string loc msg)) "" []
      | exception exn -> finish (Failed (Printexc.to_string exn)) "" [])

(* ---- the domain pool ---------------------------------------------------- *)

(* Registry handles (docs/OBSERVABILITY.md). The done/failed/cached
   counters are bumped from the same aggregation that builds
   report.json, so a --metrics file and the report cannot disagree. *)
let m_entries_done =
  lazy
    (Ir.Metrics.counter ~help:"batch entries compiled or served ok"
       "mlt_batch_entries_done")

let m_entries_failed =
  lazy (Ir.Metrics.counter ~help:"batch entries failed" "mlt_batch_entries_failed")

let m_entries_cached =
  lazy
    (Ir.Metrics.counter ~help:"batch entries served from the cache"
       "mlt_batch_entries_cached")

let m_wall_seconds =
  lazy
    (Ir.Metrics.gauge ~help:"wall-clock of the last batch run"
       "mlt_batch_wall_seconds")

let worker_hist worker =
  Ir.Metrics.histogram ~help:"per-entry wall-clock on this pool worker"
    (Printf.sprintf "mlt_batch_worker%d_entry_seconds" worker)

(* ---- progress heartbeat --------------------------------------------------

   Wall-clock-only observability: the heartbeat reads three atomics the
   workers bump and writes to stderr from its own ticker domain. Nothing
   it computes flows into results, reports, or signatures. *)

type progress_state = {
  pg_total : int;
  pg_done : int Atomic.t;  (** entries finished [Done], cached included *)
  pg_failed : int Atomic.t;
  pg_cached : int Atomic.t;
  pg_stop : bool Atomic.t;
  pg_t0 : float;
}

let progress_line st =
  let d = Atomic.get st.pg_done in
  let f = Atomic.get st.pg_failed in
  let c = Atomic.get st.pg_cached in
  let completed = d + f in
  let elapsed = Unix.gettimeofday () -. st.pg_t0 in
  let rate = if elapsed > 0. then float_of_int completed /. elapsed else 0. in
  let eta =
    if rate > 0. && completed < st.pg_total then
      Printf.sprintf " eta %.0fs" (float_of_int (st.pg_total - completed) /. rate)
    else ""
  in
  Printf.sprintf "[mlt-batch] %d/%d done (%d failed, %d cached) %.1f/s%s"
    completed st.pg_total f c rate eta

let progress_ticker st =
  Domain.spawn (fun () ->
      (* On a tty, redraw one line in place; otherwise emit a full line
         only when the numbers moved, so logs aren't flooded. *)
      let tty = try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false in
      let last = ref "" in
      let emit ~final line =
        if tty then Printf.eprintf "\r\027[K%s%s%!" line (if final then "\n" else "")
        else if final || line <> !last then Printf.eprintf "%s\n%!" line;
        last := line
      in
      while not (Atomic.get st.pg_stop) do
        emit ~final:false (progress_line st);
        Unix.sleepf 0.5
      done;
      emit ~final:true (progress_line st))

let run ?(domains = 1) ?(capture_remarks = false) ?(progress = false) ?cache
    manifest =
  (* The Dialect op-def registry is write-once-before-parallelism:
     populate it fully on this domain so the workers spawned below only
     ever read it (Ir.Dialect.register_once makes even a racing first
     registration safe, but eager registration means the unsynchronized
     lookup fast path is all the workers execute). *)
  Mlt.Pipeline.register_dialects ();
  let entries = Array.of_list (Manifest.entries manifest) in
  let n = Array.length entries in
  let domains = max 1 (min domains n) in
  (* Each result slot is written by exactly one worker — whichever
     claimed the index — so the plain array needs no synchronization;
     the pool's joins publish the writes. The cache handle, when
     present, is shared — its operations serialize on an internal
     mutex. *)
  let results : entry_result option array = Array.make n None in
  let t0 = Unix.gettimeofday () in
  let pg =
    if progress && n > 0 then
      Some
        {
          pg_total = n;
          pg_done = Atomic.make 0;
          pg_failed = Atomic.make 0;
          pg_cached = Atomic.make 0;
          pg_stop = Atomic.make false;
          pg_t0 = t0;
        }
    else None
  in
  let hists = Array.init domains worker_hist in
  (* Worker 0 runs on the calling domain — its listener/sink/counter
     state is domain-local, so this does not disturb the caller beyond
     advancing its own rewriter counters. *)
  let compile ~worker i =
    let r = compile_entry ~capture_remarks ~worker ?cache entries.(i) in
    results.(i) <- Some r;
    Ir.Metrics.observe hists.(worker) r.r_seconds;
    match pg with
    | None -> ()
    | Some st ->
        (match r.r_status with
        | Done -> Atomic.incr st.pg_done
        | Failed _ -> Atomic.incr st.pg_failed);
        if r.r_cached then Atomic.incr st.pg_cached
  in
  let ticker = Option.map progress_ticker pg in
  Support.Pool.run ~domains n compile;
  (match (pg, ticker) with
  | Some st, Some t ->
      Atomic.set st.pg_stop true;
      Domain.join t
  | _ -> ());
  let wall = Unix.gettimeofday () -. t0 in
  let results =
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> failwith "batch: unfilled result slot")
         results)
  in
  (* ResultAggregator: fold per-entry pass summaries in manifest order —
     independent of which domain compiled what, the aggregate is the one
     a sequential run would produce (timings aside). *)
  let merged =
    List.fold_left
      (fun acc r -> Ir.Pass.merge_summaries acc r.r_summary)
      [] results
  in
  let hits =
    List.length (List.filter (fun r -> r.r_cached) results)
  in
  let rp =
    {
      rp_domains = domains;
      rp_wall_seconds = wall;
      rp_cache_enabled = cache <> None;
      rp_cache_hits = hits;
      rp_cache_misses = (if cache = None then 0 else n - hits);
      rp_results = results;
      rp_summary = merged;
    }
  in
  if Ir.Metrics.enabled () then begin
    Ir.Metrics.add (Lazy.force m_entries_done) (ok_count rp);
    Ir.Metrics.add (Lazy.force m_entries_failed) (failed_count rp);
    Ir.Metrics.add (Lazy.force m_entries_cached) hits;
    Ir.Metrics.set (Lazy.force m_wall_seconds) wall
  end;
  rp

(* ---- deterministic signatures ------------------------------------------- *)

(* Render summaries without the wall-clock fields, so two runs of the
   same work can be compared for equality: pass/pattern counters are
   deterministic, seconds are not. *)
let summary_signature summaries =
  let pattern (p : Ir.Rewriter.pattern_stat) =
    Printf.sprintf "%s:%d/%d/%d" p.ps_name p.ps_attempts p.ps_hits
      p.ps_activations
  in
  String.concat "\n"
    (List.map
       (fun (s : Ir.Pass.summary) ->
         Printf.sprintf "%s runs=%d matches=%d rewrites=%d ops=%+d [%s]"
           s.s_name s.s_runs s.s_match_attempts s.s_rewrites s.s_ops_delta
           (String.concat " " (List.map pattern s.s_patterns)))
       summaries)

let result_signature r =
  Printf.sprintf "%s|%s|%s|%s"
    r.r_name r.r_config
    (match r.r_status with Done -> "ok" | Failed m -> "error:" ^ m)
    (summary_signature r.r_summary)

(* ---- report ------------------------------------------------------------- *)

let status_fields = function
  | Done -> [ ("status", J.Str "ok") ]
  | Failed msg -> [ ("status", J.Str "error"); ("error", J.Str msg) ]

let entry_json_value r =
  J.Obj
    ([
       ("name", J.Str r.r_name);
       ("pipeline", J.Str r.r_config);
       ("shard", J.num_int r.r_shard);
       ("cached", J.Bool r.r_cached);
     ]
    @ status_fields r.r_status
    @ [
        ("seconds", J.Num r.r_seconds);
        ("match_attempts", J.num_int r.r_match_attempts);
        ("rewrites", J.num_int r.r_rewrites);
        ("remarks", J.List (List.map (fun m -> J.Str m) r.r_remarks));
        ("passes", Ir.Pass.summaries_json_value r.r_summary);
      ])

(* CPU-time view to set against [wall_seconds]: the sum of per-entry
   wall-clocks across all workers. Wall-clock only — excluded (like every
   seconds field) from both signatures. *)
let total_entry_seconds rp =
  List.fold_left (fun acc r -> acc +. r.r_seconds) 0. rp.rp_results

let report_json_value rp =
  J.Obj
    [
      ("domains", J.num_int rp.rp_domains);
      ("wall_seconds", J.Num rp.rp_wall_seconds);
      ("total_entry_seconds", J.Num (total_entry_seconds rp));
      ("ok", J.num_int (ok_count rp));
      ("failed", J.num_int (failed_count rp));
      ("cache_enabled", J.Bool rp.rp_cache_enabled);
      ("cache_hits", J.num_int rp.rp_cache_hits);
      ("cache_misses", J.num_int rp.rp_cache_misses);
      ("entries", J.List (List.map entry_json_value rp.rp_results));
      ("passes", Ir.Pass.summaries_json_value rp.rp_summary);
    ]

let report_json rp = J.to_string (report_json_value rp)

(* ---- output ------------------------------------------------------------- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

(* One flat directory: which worker compiled an entry depends on
   scheduling, so it must not reach a path. Filenames are prefixed with
   the manifest index: sanitizing collapses distinct entry names
   ("gemm#0" and "gemm_0" both sanitize to "gemm_0"), and manifests may
   repeat a name outright, so the index is what guarantees one file per
   entry.
   Every file commits through the atomic writer: a kill mid-run leaves
   whole files and absent files, never torn ones. *)
let write_outputs ~dir rp =
  Support.Atomic_io.mkdir_p dir;
  List.iteri
    (fun idx r ->
      match r.r_status with
      | Failed _ -> ()
      | Done ->
          let path =
            Filename.concat dir
              (Printf.sprintf "%03d-%s.mlir" idx (sanitize r.r_name))
          in
          Support.Atomic_io.write_file ~path r.r_ir)
    rp.rp_results;
  Support.Atomic_io.write_file
    ~path:(Filename.concat dir "report.json")
    (report_json rp ^ "\n")
