(* Crash-safety of the content-addressed compilation cache.

   The commit protocol (docs/CACHE.md) promises that a kill at any
   instant loses at most the one in-flight entry and never corrupts the
   store. The first half drives [Cache.store] into every labelled crash
   point via the fault-injection hook and reopens the directory each
   time: previously committed entries must survive, the in-flight entry
   must be gone, and the recovery counters must say exactly what was
   dropped. SIGKILL debris that in-process exceptions cannot produce
   (orphaned temp files, torn journal lines, vanished blobs) is
   manufactured by hand. The second half is the driver-level resume
   story: a run whose Nth commit is killed, re-invoked against the same
   cache directory, must serve every checkpointed entry and still
   produce a report signature identical to an uncached run. *)

(* The cases below read raw payloads: [find] with the identity decoder. *)
module C = struct
  include Batch.Cache

  let find t k = find t k ~decode:Fun.id
end

module J = Support.Json
module W = Workloads.Polybench

let rec rm_rf path =
  if try Sys.is_directory path with Sys_error _ -> false then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    try Sys.rmdir path with Sys_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let with_tmp_dir f =
  let dir = Filename.temp_dir "mlt_cache_test" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Raise [Injected_crash] when the commit protocol reaches [label]. *)
let with_crash_at label f =
  C.crash_hook := (fun l -> if l = label then raise (C.Injected_crash l));
  Fun.protect ~finally:(fun () -> C.crash_hook := ignore) f

let k name = C.key [ "test"; name ]

let payload name =
  J.Obj [ ("name", J.Str name); ("len", J.num_int (String.length name)) ]

let store t name = C.store t ~key:(k name) (payload name)

(* The store layout is part of the documented format (docs/CACHE.md), so
   tests may address blobs directly to manufacture SIGKILL debris. *)
let blob_path dir key =
  Filename.concat
    (Filename.concat (Filename.concat dir "objects") (String.sub key 0 2))
    (key ^ ".json")

let json =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (J.to_string v))
    ( = )

(* ---- the happy path ----------------------------------------------- *)

let test_persistence () =
  with_tmp_dir @@ fun dir ->
  let t = C.open_ ~dir in
  Alcotest.(check int) "fresh store empty" 0 (C.entry_count t);
  store t "a";
  store t "b";
  Alcotest.(check (option json)) "immediate find"
    (Some (payload "a"))
    (C.find t (k "a"));
  let t2 = C.open_ ~dir in
  Alcotest.(check int) "both survive reopen" 2 (C.entry_count t2);
  Alcotest.(check (option json)) "payload round-trips the disk"
    (Some (payload "b"))
    (C.find t2 (k "b"));
  let r = C.recovery t2 in
  Alcotest.(check int) "no tmp swept" 0 r.C.rec_swept_tmp;
  Alcotest.(check int) "no unjournaled blobs" 0 r.C.rec_unjournaled;
  Alcotest.(check int) "no missing blobs" 0 r.C.rec_missing_blob;
  Alcotest.(check bool) "journal not torn" false r.C.rec_torn_journal;
  Alcotest.(check (pair int int)) "hit/miss counted" (1, 0) (C.hit_miss t2)

(* ---- one test per crash point ------------------------------------- *)

(* Kill the commit of "b" at [label]; "a" (committed earlier) must
   survive the reopen, "b" must not exist, and recovery must drop
   [expect_unjournaled] partial blobs. The handle that took the crash
   must also still work: a retried store of "b" commits normally. *)
let check_crash_at label ~expect_unjournaled () =
  with_tmp_dir @@ fun dir ->
  let t = C.open_ ~dir in
  store t "a";
  (match with_crash_at label (fun () -> store t "b") with
  | () -> Alcotest.failf "crash point %S never fired" label
  | exception C.Injected_crash l ->
      Alcotest.(check string) "crashed at the injected point" label l);
  Alcotest.(check bool) "in-flight entry not committed" false
    (C.mem t (k "b"));
  let t2 = C.open_ ~dir in
  Alcotest.(check bool) "committed entry survives" true (C.mem t2 (k "a"));
  Alcotest.(check bool) "in-flight entry dropped" false (C.mem t2 (k "b"));
  Alcotest.(check (option json)) "committed payload intact"
    (Some (payload "a"))
    (C.find t2 (k "a"));
  let r = C.recovery t2 in
  Alcotest.(check int) "recovery dropped only the in-flight blob"
    expect_unjournaled r.C.rec_unjournaled;
  Alcotest.(check int) "no stray temp files" 0 r.C.rec_swept_tmp;
  (* The crashed handle is not poisoned: the retry commits. *)
  store t "b";
  Alcotest.(check bool) "retry after crash commits" true (C.mem t (k "b"))

(* In-process exceptions unwind through [Atomic_io.with_file], which
   removes its temp file — so a *kill* mid-write is simulated by
   planting the orphaned temp file a real SIGKILL would leave. *)
let test_sweeps_tmp_debris () =
  with_tmp_dir @@ fun dir ->
  let t = C.open_ ~dir in
  store t "a";
  let sub = Filename.concat (Filename.concat dir "objects") "zz" in
  Support.Atomic_io.mkdir_p sub;
  let debris = Filename.concat sub "deadbeef.json.tmp-999-1" in
  Out_channel.with_open_bin debris (fun oc ->
      Out_channel.output_string oc "{\"torn\":");
  let t2 = C.open_ ~dir in
  Alcotest.(check int) "temp debris swept" 1 (C.recovery t2).C.rec_swept_tmp;
  Alcotest.(check bool) "debris file removed" false (Sys.file_exists debris);
  Alcotest.(check bool) "committed entry untouched" true (C.mem t2 (k "a"))

let test_torn_journal_drops_last_line () =
  with_tmp_dir @@ fun dir ->
  let t = C.open_ ~dir in
  store t "a";
  store t "b";
  (* A kill mid-append tears only the final line: no trailing newline. *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644
      (Filename.concat dir "journal")
  in
  output_string oc ("commit " ^ String.make 32 '0');
  close_out oc;
  let t2 = C.open_ ~dir in
  Alcotest.(check bool) "torn journal detected" true
    (C.recovery t2).C.rec_torn_journal;
  Alcotest.(check int) "earlier commits intact" 2 (C.entry_count t2);
  (* Recovery compacted the journal: reopening again is clean. *)
  let t3 = C.open_ ~dir in
  Alcotest.(check bool) "compacted journal no longer torn" false
    (C.recovery t3).C.rec_torn_journal;
  Alcotest.(check int) "still two entries" 2 (C.entry_count t3)

let test_missing_blob_dropped () =
  with_tmp_dir @@ fun dir ->
  let t = C.open_ ~dir in
  store t "a";
  store t "b";
  Sys.remove (blob_path dir (k "a"));
  let t2 = C.open_ ~dir in
  Alcotest.(check int) "journal line without blob dropped" 1
    (C.recovery t2).C.rec_missing_blob;
  Alcotest.(check bool) "vanished entry forgotten" false (C.mem t2 (k "a"));
  Alcotest.(check (option json)) "surviving entry served"
    (Some (payload "b"))
    (C.find t2 (k "b"))

let test_corrupt_blob_is_a_miss () =
  with_tmp_dir @@ fun dir ->
  let t = C.open_ ~dir in
  store t "a";
  Out_channel.with_open_bin (blob_path dir (k "a")) (fun oc ->
      Out_channel.output_string oc "not json at all");
  let t2 = C.open_ ~dir in
  Alcotest.(check (option json)) "corrupt blob reads as a miss" None
    (C.find t2 (k "a"));
  Alcotest.(check bool) "and is invalidated" false (C.mem t2 (k "a"));
  Alcotest.(check (pair int int)) "counted as a miss" (0, 1)
    (C.hit_miss t2);
  (* Invalidation unlinked the blob, so the next reopen is clean. *)
  let t3 = C.open_ ~dir in
  Alcotest.(check int) "no corpse left behind" 0 (C.entry_count t3)

(* One handle shared by six domains: four look up committed keys over
   and over (unlocked blob reads) while two commit new keys. Of the
   committed blobs, one is not JSON and one is JSON that the decoder
   rejects; both must be dropped on first sight and read as misses
   after that, while every good lookup hits with its own payload. *)
let test_shared_handle_under_contention () =
  with_tmp_dir @@ fun dir ->
  let t = C.open_ ~dir in
  let good = List.init 8 (fun i -> Printf.sprintf "good%d" i) in
  List.iter (store t) good;
  store t "unparsable";
  store t "undecodable";
  Out_channel.with_open_bin (blob_path dir (k "unparsable")) (fun oc ->
      Out_channel.output_string oc "{\"name\":");
  Out_channel.with_open_bin (blob_path dir (k "undecodable")) (fun oc ->
      Out_channel.output_string oc (J.to_string (payload "someone else")));
  let looked_up = good @ [ "unparsable"; "undecodable" ] in
  let rounds = 40 in
  let finder () =
    let wrong = ref 0 in
    for _ = 1 to rounds do
      List.iter
        (fun name ->
          let decode v = if v = payload name then name else failwith "wrong" in
          match Batch.Cache.find t (k name) ~decode with
          | Some n when n = name && List.mem name good -> ()
          | None when not (List.mem name good) -> ()
          | _ -> incr wrong)
        looked_up
    done;
    !wrong
  in
  let storer d () =
    for i = 1 to 20 do
      store t (Printf.sprintf "new%d-%d" d i)
    done;
    0
  in
  let domains =
    List.init 4 (fun _ -> Domain.spawn finder)
    @ List.init 2 (fun d -> Domain.spawn (storer d))
  in
  let wrong = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Alcotest.(check int) "every good lookup hit, every corrupt one missed" 0
    wrong;
  let lookups = 4 * rounds * List.length looked_up in
  let good_lookups = 4 * rounds * List.length good in
  let hits, misses = C.hit_miss t in
  Alcotest.(check int) "hits = good lookups" good_lookups hits;
  Alcotest.(check int) "hits + misses = lookups" lookups (hits + misses);
  Alcotest.(check bool) "unparsable blob invalidated" false
    (C.mem t (k "unparsable"));
  Alcotest.(check bool) "undecodable blob invalidated" false
    (C.mem t (k "undecodable"));
  Alcotest.(check int) "good and new entries committed" (8 + 40)
    (C.entry_count t);
  let t2 = C.open_ ~dir in
  let r = C.recovery t2 in
  Alcotest.(check int) "reopen: the two dropped entries' lines" 2
    r.C.rec_missing_blob;
  Alcotest.(check int) "reopen: no unjournaled blob" 0 r.C.rec_unjournaled;
  Alcotest.(check int) "reopen: no temp debris" 0 r.C.rec_swept_tmp;
  Alcotest.(check bool) "reopen: journal whole" false r.C.rec_torn_journal;
  Alcotest.(check int) "reopen keeps every good and new entry" (8 + 40)
    (C.entry_count t2);
  List.iter
    (fun name ->
      Alcotest.(check (option json)) ("reopen serves " ^ name)
        (Some (payload name))
        (C.find t2 (k name)))
    (good @ [ "new0-1"; "new1-20" ]);
  let r3 = C.recovery (C.open_ ~dir) in
  Alcotest.(check int) "second reopen: nothing missing" 0 r3.C.rec_missing_blob

(* [find] runs the decoder outside the lock, so the decoder can stand in
   for another domain acting between this reader's lookup and its
   verdict: it drops the entry, commits a fresh blob under the same key,
   then rejects the payload it was given. The stale reader's verdict
   must not drop the newer commit. *)
let test_stale_invalidation_keeps_newer_commit () =
  with_tmp_dir @@ fun dir ->
  let t = C.open_ ~dir in
  store t "a";
  let reject _ = failwith "undecodable" in
  let raced_reader _ =
    Alcotest.(check (option unit)) "the other reader drops the entry" None
      (Batch.Cache.find t (k "a") ~decode:reject);
    C.store t ~key:(k "a") (payload "a2");
    reject ()
  in
  Alcotest.(check (option unit)) "the stale reader misses" None
    (Batch.Cache.find t (k "a") ~decode:raced_reader);
  Alcotest.(check (option json)) "the newer commit survives"
    (Some (payload "a2"))
    (C.find t (k "a"));
  Alcotest.(check (pair int int)) "two misses, then the hit" (1, 2)
    (C.hit_miss t)

(* ---- driver-level checkpoint / resume ----------------------------- *)

let mini_manifest n =
  let entries =
    List.filteri (fun i _ -> i < n) (W.tiny_suite ())
    |> List.map (fun (name, src) ->
           {
             Batch.Manifest.e_name = name;
             e_source = Batch.Manifest.Inline src;
             e_schedule = Mlt.Pipeline.Config Mlt.Pipeline.Mlt_linalg;
           })
  in
  Batch.Manifest.of_entries entries

let check_reports_match ~msg (a : Batch.Driver.report)
    (b : Batch.Driver.report) =
  List.iter2
    (fun (x : Batch.Driver.entry_result) (y : Batch.Driver.entry_result) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s IR byte-identical" msg
           x.Batch.Driver.r_name)
        x.Batch.Driver.r_ir y.Batch.Driver.r_ir;
      Alcotest.(check string)
        (Printf.sprintf "%s: %s signature identical" msg
           x.Batch.Driver.r_name)
        (Batch.Driver.result_signature x)
        (Batch.Driver.result_signature y))
    a.Batch.Driver.rp_results b.Batch.Driver.rp_results;
  Alcotest.(check string)
    (msg ^ ": aggregate signature identical")
    (Batch.Driver.summary_signature a.Batch.Driver.rp_summary)
    (Batch.Driver.summary_signature b.Batch.Driver.rp_summary)

let test_warm_run_served_entirely_from_cache () =
  with_tmp_dir @@ fun dir ->
  let manifest = mini_manifest 3 in
  let uncached = Batch.Driver.run ~domains:1 manifest in
  let cold = Batch.Driver.run ~domains:2 ~cache:(C.open_ ~dir) manifest in
  let warm = Batch.Driver.run ~domains:2 ~cache:(C.open_ ~dir) manifest in
  Alcotest.(check (pair int int)) "cold run all misses" (0, 3)
    (cold.Batch.Driver.rp_cache_hits, cold.Batch.Driver.rp_cache_misses);
  Alcotest.(check (pair int int)) "warm run all hits" (3, 0)
    (warm.Batch.Driver.rp_cache_hits, warm.Batch.Driver.rp_cache_misses);
  List.iter
    (fun (r : Batch.Driver.entry_result) ->
      Alcotest.(check bool)
        (r.Batch.Driver.r_name ^ " flagged cached") true
        r.Batch.Driver.r_cached)
    warm.Batch.Driver.rp_results;
  check_reports_match ~msg:"cold vs uncached" uncached cold;
  check_reports_match ~msg:"warm vs uncached" uncached warm

let test_killed_run_resumes_from_checkpoints () =
  with_tmp_dir @@ fun dir ->
  let manifest = mini_manifest 3 in
  let oracle = Batch.Driver.run ~domains:1 manifest in
  (* First run: the third commit is killed after its blob rename but
     before its journal line — the worst spot, because the blob looks
     complete on disk. The entry itself still succeeds (a failed store
     is a warning), but its checkpoint never lands. *)
  let commits = ref 0 in
  C.crash_hook :=
    (fun l ->
      if l = "store:before-journal" then begin
        incr commits;
        if !commits = 3 then raise (C.Injected_crash l)
      end);
  let first =
    Fun.protect
      ~finally:(fun () -> C.crash_hook := ignore)
      (fun () ->
        Batch.Driver.run ~domains:1 ~cache:(C.open_ ~dir) manifest)
  in
  Alcotest.(check int) "interrupted run still compiles every entry" 3
    (Batch.Driver.ok_count first);
  (* Re-invoke with the same cache directory: recovery discards the
     in-flight blob, the two checkpointed entries are served, only the
     third recompiles. *)
  let t = C.open_ ~dir in
  Alcotest.(check int) "recovery dropped the in-flight blob" 1
    (C.recovery t).C.rec_unjournaled;
  Alcotest.(check int) "two checkpoints survived" 2 (C.entry_count t);
  let resumed = Batch.Driver.run ~domains:1 ~cache:t manifest in
  Alcotest.(check (pair int int)) "resume: 2 served, 1 recompiled" (2, 1)
    (resumed.Batch.Driver.rp_cache_hits,
     resumed.Batch.Driver.rp_cache_misses);
  check_reports_match ~msg:"resumed vs uncached" oracle resumed

(* A committed blob that parses but does not decode (here its
   [ir_digest] no longer matches its IR) must heal: the run that meets it
   drops it, recompiles and commits a fresh blob, and the next run is all
   hits. The handle's counters agree with the report on both runs. *)
let test_undecodable_blob_heals () =
  with_tmp_dir @@ fun dir ->
  let manifest = mini_manifest 2 in
  let oracle = Batch.Driver.run ~domains:1 manifest in
  ignore (Batch.Driver.run ~domains:1 ~cache:(C.open_ ~dir) manifest);
  let objects = Filename.concat dir "objects" in
  let blob =
    Sys.readdir objects |> Array.to_list |> List.sort compare
    |> List.concat_map (fun sub ->
           Sys.readdir (Filename.concat objects sub)
           |> Array.to_list |> List.sort compare
           |> List.map (fun f -> Filename.concat (Filename.concat objects sub) f))
    |> List.hd
  in
  let corrupt =
    match J.parse (In_channel.with_open_bin blob In_channel.input_all) with
    | Ok (J.Obj fields) ->
        J.Obj
          (List.map
             (fun (f, v) ->
               if f = "ir_digest" then (f, J.Str (String.make 32 '0'))
               else (f, v))
             fields)
    | _ -> Alcotest.fail "committed blob is not a JSON object"
  in
  Out_channel.with_open_bin blob (fun oc ->
      Out_channel.output_string oc (J.to_string corrupt));
  let run () =
    let t = C.open_ ~dir in
    let rp = Batch.Driver.run ~domains:1 ~cache:t manifest in
    let counts =
      (rp.Batch.Driver.rp_cache_hits, rp.Batch.Driver.rp_cache_misses)
    in
    Alcotest.(check (pair int int)) "hit_miss agrees with the report" counts
      (C.hit_miss t);
    check_reports_match ~msg:"served vs uncached" oracle rp;
    counts
  in
  Alcotest.(check (pair int int)) "first run recompiles the bad entry" (1, 1)
    (run ());
  Alcotest.(check (pair int int)) "second run is all hits" (2, 0) (run ())

(* An entry whose source cannot be read fails before any lookup, so it is
   no cache miss: report.json's cache_misses counts what Cache.hit_miss
   counts. *)
let test_unreadable_source_is_no_miss () =
  with_tmp_dir @@ fun dir ->
  let path name = Filename.concat dir name in
  let _, src = List.hd (W.tiny_suite ()) in
  Out_channel.with_open_bin (path "kernel.c") (fun oc ->
      Out_channel.output_string oc src);
  let entry name file =
    {
      Batch.Manifest.e_name = name;
      e_source = Batch.Manifest.File (path file);
      e_schedule = Mlt.Pipeline.Config Mlt.Pipeline.Mlt_linalg;
    }
  in
  let manifest =
    Batch.Manifest.of_entries
      [ entry "kernel" "kernel.c"; entry "gone" "missing.c" ]
  in
  let t = C.open_ ~dir:(path "cache") in
  let rp = Batch.Driver.run ~domains:1 ~cache:t manifest in
  Alcotest.(check int) "the missing file fails" 1
    (Batch.Driver.failed_count rp);
  let cache_counts =
    match J.parse (Batch.Driver.report_json rp) with
    | Ok (J.Obj fields) ->
        let count k = Option.get (J.to_int (List.assoc k fields)) in
        (count "cache_hits", count "cache_misses")
    | _ -> Alcotest.fail "report.json is not an object"
  in
  Alcotest.(check (pair int int)) "report.json: one lookup, one miss" (0, 1)
    cache_counts;
  Alcotest.(check (pair int int)) "hit_miss agrees with report.json"
    cache_counts (C.hit_miss t)

(* Cache identity is derived from the schedule's *printed script*, not
   its name or pass list: two schedules that differ only in a tile size
   must never alias each other's entries (the v1 identity, built from
   pass names alone, did exactly that). *)
let test_different_tilings_never_alias () =
  with_tmp_dir @@ fun dir ->
  let manifest_with steps =
    Batch.Manifest.of_entries
      [
        {
          Batch.Manifest.e_name = "mm";
          e_source =
            Batch.Manifest.Inline
              (Workloads.Polybench.mm ~ni:8 ~nj:8 ~nk:8 ());
          e_schedule = Mlt.Pipeline.schedule_of_steps steps;
        };
      ]
  in
  let tile2 = manifest_with [ Transform.Script.Tile [ 2 ] ] in
  let tile4 = manifest_with [ Transform.Script.Tile [ 4 ] ] in
  Alcotest.(check bool) "distinct scripts, distinct cache identities" false
    (String.equal
       (Mlt.Pipeline.schedule_cache_identity
          (List.hd (Batch.Manifest.entries tile2)).Batch.Manifest.e_schedule)
       (Mlt.Pipeline.schedule_cache_identity
          (List.hd (Batch.Manifest.entries tile4)).Batch.Manifest.e_schedule));
  let run m = Batch.Driver.run ~domains:1 ~cache:(C.open_ ~dir) m in
  let cold2 = run tile2 in
  Alcotest.(check (pair int int)) "cold 2x2 tiling compiles" (0, 1)
    (cold2.Batch.Driver.rp_cache_hits, cold2.Batch.Driver.rp_cache_misses);
  let cold4 = run tile4 in
  Alcotest.(check (pair int int)) "4x4 tiling misses the 2x2 entry" (0, 1)
    (cold4.Batch.Driver.rp_cache_hits, cold4.Batch.Driver.rp_cache_misses);
  Alcotest.(check bool) "the two tilings produce different IR" false
    (String.equal
       (List.hd cold2.Batch.Driver.rp_results).Batch.Driver.r_ir
       (List.hd cold4.Batch.Driver.rp_results).Batch.Driver.r_ir);
  let warm2 = run tile2 in
  Alcotest.(check (pair int int)) "same tiling is served from cache" (1, 0)
    (warm2.Batch.Driver.rp_cache_hits, warm2.Batch.Driver.rp_cache_misses);
  Alcotest.(check string) "served IR byte-identical"
    (List.hd cold2.Batch.Driver.rp_results).Batch.Driver.r_ir
    (List.hd warm2.Batch.Driver.rp_results).Batch.Driver.r_ir

(* The cache identity of a schedule is the printed transform script, so
   it is only as stable as the printer's bytes. Each built-in config and
   one custom script with per-dimension tile sizes and BLIS parameters
   keep the digest they had when these pins were recorded: a printer
   change that shifts a byte would orphan every cached artifact. *)
let test_cache_identity_digests_pinned () =
  let module P = Mlt.Pipeline in
  let module S = Transform.Script in
  let pin schedule expected =
    Alcotest.(check string)
      ("cache identity of " ^ P.schedule_name schedule)
      expected
      (Support.Digest.string (P.schedule_cache_identity schedule))
  in
  List.iter
    (fun (c, expected) -> pin (P.Config c) expected)
    [
      (P.Clang_O3, "82e6ba8a4fdf5c92bdee401a205423fa");
      (P.Pluto_default, "385d9675cfe7cae518db2fdfc19a640d");
      (P.Pluto_best, "385d9675cfe7cae518db2fdfc19a640d");
      (P.Mlt_linalg, "1e06e53ccbd9a92252d721b4e18f8cca");
      (P.Mlt_blas, "618b8e1103e8e6c81aab1b037214d03d");
      (P.Mlt_affine_blis, "82212a1278e88fd9b84a17e62fa73a7c");
    ];
  pin
    (P.schedule_of_steps ~name:"custom"
       [
         S.Fuse Transforms.Loop_fuse.Smart_fuse;
         S.Tile [ 32; 16; 8 ];
         S.Interchange;
         S.Unroll 4;
         S.Canonicalize true;
         S.Raise "linalg";
         S.Lower_linalg (Some 24);
         S.Blis_schedule
           { Transforms.Blis_schedule.mc = 96; nc = 2048; kc = 256 };
         S.Lower_affine;
         S.Dce;
       ])
    "5ece6d2123ae3f89ee3ca0a793ccf597"

let suite =
  [
    Alcotest.test_case "commits persist across reopen" `Quick
      test_persistence;
    Alcotest.test_case "kill before the temp file" `Quick
      (check_crash_at "store:before-tmp" ~expect_unjournaled:0);
    Alcotest.test_case "kill mid-blob-write" `Quick
      (check_crash_at "store:mid-blob" ~expect_unjournaled:0);
    Alcotest.test_case "kill before the rename" `Quick
      (check_crash_at "store:before-rename" ~expect_unjournaled:0);
    Alcotest.test_case "kill between rename and journal line" `Quick
      (check_crash_at "store:before-journal" ~expect_unjournaled:1);
    Alcotest.test_case "kill after the journal line commits" `Quick
      (fun () ->
        (* After the journal line the entry IS committed: the crash only
           skips the in-memory bookkeeping, and reopening serves it. *)
        with_tmp_dir @@ fun dir ->
        let t = C.open_ ~dir in
        (match with_crash_at "store:after-journal" (fun () -> store t "a")
         with
        | () -> Alcotest.fail "crash point never fired"
        | exception C.Injected_crash _ -> ());
        let t2 = C.open_ ~dir in
        Alcotest.(check (option json)) "journaled entry survives"
          (Some (payload "a"))
          (C.find t2 (k "a")));
    Alcotest.test_case "orphaned temp files are swept" `Quick
      test_sweeps_tmp_debris;
    Alcotest.test_case "torn journal line is dropped" `Quick
      test_torn_journal_drops_last_line;
    Alcotest.test_case "journal line without blob is dropped" `Quick
      test_missing_blob_dropped;
    Alcotest.test_case "corrupt blob degrades to a miss" `Quick
      test_corrupt_blob_is_a_miss;
    Alcotest.test_case "shared handle under contention" `Quick
      test_shared_handle_under_contention;
    Alcotest.test_case "stale invalidation keeps the newer commit" `Quick
      test_stale_invalidation_keeps_newer_commit;
    Alcotest.test_case "warm run served entirely from cache" `Quick
      test_warm_run_served_entirely_from_cache;
    Alcotest.test_case "killed run resumes from checkpoints" `Quick
      test_killed_run_resumes_from_checkpoints;
    Alcotest.test_case "undecodable blob is replaced" `Quick
      test_undecodable_blob_heals;
    Alcotest.test_case "unreadable source is no cache miss" `Quick
      test_unreadable_source_is_no_miss;
    Alcotest.test_case "different tilings never alias in the cache" `Quick
      test_different_tilings_never_alias;
    Alcotest.test_case "schedule cache identities keep their digests" `Quick
      test_cache_identity_digests_pinned;
  ]
