type t = { name : string; run : Core.op -> unit }

let make ~name run = { name; run }

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let zero_gc =
  {
    minor_words = 0.;
    major_words = 0.;
    promoted_words = 0.;
    minor_collections = 0;
    major_collections = 0;
  }

let add_gc a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
  }

(* [Gc.quick_stat] reads the counters without forcing a heap walk, so
   sampling it around every pass is cheap enough to do unconditionally.
   Its [minor_words] field only advances at minor-collection boundaries,
   though, so [timed] overrides that one field from [Gc.minor_words]
   (which reads the live allocation pointer) — otherwise any pass that
   allocates less than a minor heap reports zero. Note the counters are
   per-domain: a pass that spawns domains (none do today) would
   under-report. *)
let gc_delta (before : Gc.stat) (after : Gc.stat) =
  {
    minor_words = after.minor_words -. before.minor_words;
    major_words = after.major_words -. before.major_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
  }

type timing = {
  pass_name : string;
  seconds : float;
  ops_before : int;
  ops_after : int;
  match_attempts : int;
  rewrites : int;
  gc : gc_delta;
  pattern_stats : Rewriter.pattern_stat list;
}

(* Per-pattern deltas between two [Rewriter.pattern_totals] snapshots,
   keeping only the patterns that participated in this pass (activated,
   attempted, or applied). Counters are monotonic, so every [before] row
   is present in [after]. Rows are ordered by name: the registry's
   registration order reflects the domain's whole compile history, so it
   differs between a fresh domain and one that has compiled other
   pipelines first — sorting keeps recorded stats independent of that. *)
let pattern_delta before after =
  let prior = Hashtbl.create 32 in
  List.iter
    (fun (s : Rewriter.pattern_stat) -> Hashtbl.replace prior s.ps_name s)
    before;
  List.filter_map
    (fun (s : Rewriter.pattern_stat) ->
      let d =
        match Hashtbl.find_opt prior s.ps_name with
        | None -> s
        | Some p ->
            {
              s with
              ps_attempts = s.ps_attempts - p.ps_attempts;
              ps_hits = s.ps_hits - p.ps_hits;
              ps_activations = s.ps_activations - p.ps_activations;
            }
      in
      if d.ps_attempts > 0 || d.ps_hits > 0 || d.ps_activations > 0 then
        Some d
      else None)
    after
  |> List.sort (fun (a : Rewriter.pattern_stat) b ->
         String.compare a.ps_name b.ps_name)

type snapshot_policy = No_snapshots | After_all | After_named of string list

type manager = {
  mutable passes_rev : t list;  (** reverse order *)
  mutable recorded : timing list;  (** reverse order *)
  verify_each : bool;
  snapshot : snapshot_policy;
  ir_sink : pass_name:string -> ir:string -> unit;
}

let default_ir_sink ~pass_name ~ir =
  Printf.printf "// ----- IR after pass '%s' -----\n%s\n" pass_name ir

let create_manager ?(verify_each = false) ?(snapshot = No_snapshots)
    ?(ir_sink = default_ir_sink) () =
  { passes_rev = []; recorded = []; verify_each; snapshot; ir_sink }

let add m p = m.passes_rev <- p :: m.passes_rev
let add_all m ps = List.iter (add m) ps

let count_ops root =
  let n = ref 0 in
  Core.walk root (fun _ -> incr n);
  !n

let wants_snapshot m name =
  match m.snapshot with
  | No_snapshots -> false
  | After_all -> true
  | After_named names -> List.mem name names

(* Timing is recorded in a [Fun.protect] finalizer so that a pass raising
   mid-run still contributes its (partial) entry to the report. *)
let metric_pass_seconds =
  lazy (Metrics.histogram ~help:"per-pass wall-clock seconds" "mlt_pass_seconds")

let metric_pass_minor_words =
  lazy
    (Metrics.counter ~help:"minor-heap words allocated inside passes"
       "mlt_pass_minor_words")

let metric_pass_major_collections =
  lazy
    (Metrics.counter ~help:"major collections triggered inside passes"
       "mlt_pass_major_collections")

let timed m ~name root body =
  let ops_before = count_ops root in
  let attempts0, rewrites0 = Rewriter.counter_totals () in
  let patterns0 = Rewriter.pattern_totals () in
  let gc0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  if Trace.enabled () then
    Trace.begin_ ~cat:"pass"
      ~args:[ ("ops_before", Trace.A_int ops_before) ]
      name;
  Fun.protect
    ~finally:(fun () ->
      let seconds = Unix.gettimeofday () -. t0 in
      let gc =
        { (gc_delta gc0 (Gc.quick_stat ())) with
          minor_words = Gc.minor_words () -. mw0 }
      in
      let attempts1, rewrites1 = Rewriter.counter_totals () in
      let entry =
        {
          pass_name = name;
          seconds;
          ops_before;
          ops_after = count_ops root;
          match_attempts = attempts1 - attempts0;
          rewrites = rewrites1 - rewrites0;
          gc;
          pattern_stats = pattern_delta patterns0 (Rewriter.pattern_totals ());
        }
      in
      m.recorded <- entry :: m.recorded;
      if Metrics.enabled () then begin
        Metrics.observe (Lazy.force metric_pass_seconds) seconds;
        Metrics.add
          (Lazy.force metric_pass_minor_words)
          (int_of_float gc.minor_words);
        Metrics.add
          (Lazy.force metric_pass_major_collections)
          gc.major_collections
      end;
      if Trace.enabled () then
        Trace.end_ ~cat:"pass"
          ~args:
            [
              ("ops_after", Trace.A_int entry.ops_after);
              ("match_attempts", Trace.A_int entry.match_attempts);
              ("rewrites", Trace.A_int entry.rewrites);
              ("minor_words", Trace.A_int (int_of_float gc.minor_words));
            ]
          name)
    body

let run_pass m root p =
  (* Re-report mid-pass diagnostics with the failing pass's name; the
     location (stamped by the rewriter when the failure happened at a
     located op) rides along untouched. *)
  (try timed m ~name:p.name root (fun () -> p.run root)
   with Support.Diag.Error (loc, msg) ->
     raise
       (Support.Diag.Error (loc, Printf.sprintf "pass '%s': %s" p.name msg)));
  if wants_snapshot m p.name then
    m.ir_sink ~pass_name:p.name ~ir:(Printer.op_to_string root);
  if m.verify_each then
    match Verifier.verify_result root with
    | Ok () -> ()
    | Error msg -> Support.Diag.errorf "after pass '%s': %s" p.name msg

let run m root = List.iter (run_pass m root) (List.rev m.passes_rev)

let timings m = List.rev m.recorded

let total_seconds m =
  List.fold_left (fun acc t -> acc +. t.seconds) 0. (timings m)

let clear_timings m = m.recorded <- []

(* ---- aggregation ------------------------------------------------------- *)

type summary = {
  s_name : string;
  s_runs : int;
  s_seconds : float;
  s_match_attempts : int;
  s_rewrites : int;
  s_ops_delta : int;
  s_gc : gc_delta;
  s_patterns : Rewriter.pattern_stat list;
}

(* Merge per-run pattern rows by name, keeping first-appearance order. *)
let merge_pattern_stats acc ps =
  List.fold_left
    (fun acc (p : Rewriter.pattern_stat) ->
      let rec go = function
        | [] -> [ p ]
        | (s : Rewriter.pattern_stat) :: rest
          when String.equal s.ps_name p.ps_name ->
            {
              s with
              ps_attempts = s.ps_attempts + p.ps_attempts;
              ps_hits = s.ps_hits + p.ps_hits;
              ps_activations = s.ps_activations + p.ps_activations;
            }
            :: rest
        | s :: rest -> s :: go rest
      in
      go acc)
    acc ps

(* Fold one summary row into an accumulated list, merging by pass name
   and keeping first-appearance order, so per-run timings ([summarize])
   and per-domain results ([merge_summaries]) combine deterministically. *)
let add_summary acc (x : summary) =
  let rec go = function
    | [] -> [ x ]
    | s :: rest when String.equal s.s_name x.s_name ->
        {
          s with
          s_runs = s.s_runs + x.s_runs;
          s_seconds = s.s_seconds +. x.s_seconds;
          s_match_attempts = s.s_match_attempts + x.s_match_attempts;
          s_rewrites = s.s_rewrites + x.s_rewrites;
          s_ops_delta = s.s_ops_delta + x.s_ops_delta;
          s_gc = add_gc s.s_gc x.s_gc;
          s_patterns = merge_pattern_stats s.s_patterns x.s_patterns;
        }
        :: rest
    | s :: rest -> s :: go rest
  in
  go acc

let merge_summaries a b = List.fold_left add_summary a b

let summary_of_timing (t : timing) =
  {
    s_name = t.pass_name;
    s_runs = 1;
    s_seconds = t.seconds;
    s_match_attempts = t.match_attempts;
    s_rewrites = t.rewrites;
    s_ops_delta = t.ops_after - t.ops_before;
    s_gc = t.gc;
    s_patterns = t.pattern_stats;
  }

let summarize m =
  List.fold_left
    (fun acc t -> add_summary acc (summary_of_timing t))
    [] (timings m)

(* ---- reports ----------------------------------------------------------- *)

let report_table m =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %12s %8s %8s %9s %9s %10s %6s\n" "pass" "seconds"
       "ops-in" "ops-out" "matches" "rewrites" "minor-Mw" "majGCs");
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "%-40s %12.6f %8d %8d %9d %9d %10.2f %6d\n"
           t.pass_name t.seconds t.ops_before t.ops_after
           t.match_attempts t.rewrites
           (t.gc.minor_words /. 1e6)
           t.gc.major_collections);
      List.iter
        (fun (p : Rewriter.pattern_stat) ->
          Buffer.add_string buf
            (Printf.sprintf "%-40s %12s %8s %8s %9d %9d\n"
               ("  . " ^ p.ps_name) "" "" "" p.ps_attempts p.ps_hits))
        t.pattern_stats)
    (timings m);
  Buffer.add_string buf
    (Printf.sprintf "%-40s %12.6f\n" "total" (total_seconds m));
  Buffer.contents buf

let summary_table m =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %6s %12s %9s %9s %9s %10s %6s\n" "pass" "runs"
       "seconds" "matches" "rewrites" "ops-delta" "minor-Mw" "majGCs");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-40s %6d %12.6f %9d %9d %+9d %10.2f %6d\n" s.s_name
           s.s_runs s.s_seconds s.s_match_attempts s.s_rewrites s.s_ops_delta
           (s.s_gc.minor_words /. 1e6)
           s.s_gc.major_collections);
      List.iter
        (fun (p : Rewriter.pattern_stat) ->
          Buffer.add_string buf
            (Printf.sprintf "%-40s %6d %12s %9d %9d %9s\n"
               ("  . " ^ p.ps_name) p.ps_activations "" p.ps_attempts
               p.ps_hits ""))
        s.s_patterns)
    (summarize m);
  Buffer.contents buf

(* All JSON reports render through the shared Support.Json writer, so
   escaping and number formatting cannot diverge between emitters (the
   batch report embeds these same values). *)
module J = Support.Json

let pattern_stat_json (p : Rewriter.pattern_stat) =
  J.Obj
    [
      ("name", J.Str p.ps_name);
      ("attempts", J.num_int p.ps_attempts);
      ("hits", J.num_int p.ps_hits);
      ("activations", J.num_int p.ps_activations);
    ]

(* Word counts are integral floats (OCaml's Gc reports them as floats to
   survive 32-bit); render them as numbers, not ints, so >2^53 never
   traps. *)
let gc_json g =
  J.Obj
    [
      ("minor_words", J.Num g.minor_words);
      ("major_words", J.Num g.major_words);
      ("promoted_words", J.Num g.promoted_words);
      ("minor_collections", J.num_int g.minor_collections);
      ("major_collections", J.num_int g.major_collections);
    ]

let gc_of_json j =
  let num k =
    match J.member k j with Some (J.Num v) -> v | _ -> 0.
  in
  let int k = Option.value ~default:0 (Option.bind (J.member k j) J.to_int) in
  {
    minor_words = num "minor_words";
    major_words = num "major_words";
    promoted_words = num "promoted_words";
    minor_collections = int "minor_collections";
    major_collections = int "major_collections";
  }

(* The decoders raise [Failure] on a missing or ill-typed member, so a
   malformed cache payload reads as a miss. *)
let member conv k j =
  match Option.bind (J.member k j) conv with
  | Some v -> v
  | None -> failwith ("Pass: summary JSON lacks a valid " ^ k)

let str = function J.Str s -> Some s | _ -> None
let num = function J.Num f -> Some f | _ -> None
let list = function J.List l -> Some l | _ -> None

let pattern_stat_of_json j : Rewriter.pattern_stat =
  {
    ps_name = member str "name" j;
    ps_attempts = member J.to_int "attempts" j;
    ps_hits = member J.to_int "hits" j;
    ps_activations = member J.to_int "activations" j;
  }

let summary_of_json j =
  {
    s_name = member str "name" j;
    s_runs = member J.to_int "runs" j;
    s_seconds = member num "seconds" j;
    s_match_attempts = member J.to_int "match_attempts" j;
    s_rewrites = member J.to_int "rewrites" j;
    s_ops_delta = member J.to_int "ops_delta" j;
    s_gc =
      (match J.member "gc" j with Some g -> gc_of_json g | None -> zero_gc);
    s_patterns = List.map pattern_stat_of_json (member list "patterns" j);
  }

let timing_json (t : timing) =
  J.Obj
    [
      ("name", J.Str t.pass_name);
      ("seconds", J.Num t.seconds);
      ("ops_before", J.num_int t.ops_before);
      ("ops_after", J.num_int t.ops_after);
      ("match_attempts", J.num_int t.match_attempts);
      ("rewrites", J.num_int t.rewrites);
      ("gc", gc_json t.gc);
      ("patterns", J.List (List.map pattern_stat_json t.pattern_stats));
    ]

let report_json m =
  J.to_string
    (J.Obj
       [
         ("total_seconds", J.Num (total_seconds m));
         ("passes", J.List (List.map timing_json (timings m)));
       ])

let summary_entry_json s =
  J.Obj
    [
      ("name", J.Str s.s_name);
      ("runs", J.num_int s.s_runs);
      ("seconds", J.Num s.s_seconds);
      ("match_attempts", J.num_int s.s_match_attempts);
      ("rewrites", J.num_int s.s_rewrites);
      ("ops_delta", J.num_int s.s_ops_delta);
      ("gc", gc_json s.s_gc);
      ("patterns", J.List (List.map pattern_stat_json s.s_patterns));
    ]

let summaries_json_value summaries =
  J.List (List.map summary_entry_json summaries)

let summary_json m =
  J.to_string
    (J.Obj
       [
         ("total_seconds", J.Num (total_seconds m));
         ("passes", summaries_json_value (summarize m));
       ])
