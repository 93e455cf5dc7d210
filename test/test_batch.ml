(* Multi-domain safety and the sharded batch driver.

   The first half regression-tests the domain-safety fixes directly:
   atomic id generation under parallel create_op bursts, and
   exception-safe listener/sink scopes. The second half is the
   multi-domain stress suite: the tiny polybench workloads compiled on a
   4-domain pool must match the sequential oracle byte-for-byte
   (QCheck randomizes the manifest order), and a crashing input must
   fail only its own entry. *)

open Ir

module W = Workloads.Polybench

(* ---- atomic id generation ----------------------------------------- *)

let test_id_gen_parallel_unique () =
  (* Four domains race [Id_gen.next] on a shared generator; with the
     old non-atomic [incr] two domains could read the same counter
     value and hand out colliding ids. *)
  let gen = Support.Id_gen.create () in
  let per_domain = 20_000 in
  let burst () = Array.init per_domain (fun _ -> Support.Id_gen.next gen) in
  let others = List.init 3 (fun _ -> Domain.spawn burst) in
  let mine = burst () in
  let all = mine :: List.map Domain.join others in
  let seen = Hashtbl.create (4 * per_domain) in
  List.iter
    (fun ids ->
      Array.iter
        (fun id ->
          if Hashtbl.mem seen id then
            Alcotest.failf "id %d handed out twice" id;
          Hashtbl.add seen id ())
        ids)
    all;
  Alcotest.(check int) "every id distinct" (4 * per_domain)
    (Hashtbl.length seen)

let test_create_op_parallel_unique () =
  (* Same race through the public IR constructor: parallel create_op
     bursts must never mint colliding op or value ids (both draw from
     [Id_gen.global]). *)
  let per_domain = 2_000 in
  let burst () =
    Array.init per_domain (fun i ->
        let op =
          Core.create_op
            ~result_types:[ Typ.F32 ]
            (Printf.sprintf "test.burst%d" (i land 7))
        in
        (op.Core.o_id, op.Core.o_results.(0).Core.v_id))
  in
  let others = List.init 3 (fun _ -> Domain.spawn burst) in
  let mine = burst () in
  let all = mine :: List.map Domain.join others in
  let seen = Hashtbl.create (8 * per_domain) in
  let claim id =
    if Hashtbl.mem seen id then Alcotest.failf "id %d minted twice" id;
    Hashtbl.add seen id ()
  in
  List.iter (Array.iter (fun (oid, vid) -> claim oid; claim vid)) all;
  Alcotest.(check int) "op and value ids all distinct" (8 * per_domain)
    (Hashtbl.length seen)

(* ---- exception-safe listener / sink scopes ------------------------ *)

exception Boom

let null_listener =
  {
    Core.on_op_inserted = ignore;
    on_op_erased = ignore;
    on_operand_update = ignore;
  }

let test_listener_stack_restored_on_raise () =
  Alcotest.(check int) "depth 0 outside any scope" 0 (Core.listener_depth ());
  (try
     Core.with_listener null_listener (fun () ->
         Alcotest.(check int) "depth 1 inside" 1 (Core.listener_depth ());
         Core.with_listener null_listener (fun () ->
             Alcotest.(check int) "depth 2 nested" 2 (Core.listener_depth ());
             raise Boom))
   with Boom -> ());
  Alcotest.(check int) "depth restored after nested raise" 0
    (Core.listener_depth ())

let test_listener_raising_mid_notify_still_popped () =
  (* The listener itself raising from a notification must not leave the
     stack deeper than it was: [with_listener] pops on the way out no
     matter who raised. *)
  let angry =
    { null_listener with Core.on_op_inserted = (fun _ -> raise Boom) }
  in
  (try
     Core.with_listener angry (fun () ->
         let block = Core.create_block [] in
         Core.append_op block
           (Core.create_op ~result_types:[ Typ.F32 ] "test.poke"))
   with Boom -> ());
  Alcotest.(check int) "depth restored after listener raised" 0
    (Core.listener_depth ())

let test_trace_sink_restored_on_raise () =
  Alcotest.(check int) "no trace sinks initially" 0 (Trace.installed_count ());
  (try Trace.with_sink ignore (fun () -> raise Boom) with Boom -> ());
  Alcotest.(check int) "trace sink popped after raise" 0
    (Trace.installed_count ());
  Alcotest.(check bool) "trace disabled again" false (Trace.enabled ())

let test_remark_sink_restored_on_raise () =
  Alcotest.(check int) "no remark sinks initially" 0
    (Remark.installed_count ());
  (try
     Remark.with_sink ignore (fun () ->
         Remark.with_sink ignore (fun () ->
             Alcotest.(check int) "two remark sinks" 2
               (Remark.installed_count ());
             raise Boom))
   with Boom -> ());
  Alcotest.(check int) "remark sinks popped after raise" 0
    (Remark.installed_count ())

(* ---- multi-domain stress: batch vs sequential oracle -------------- *)

let stress_entries () =
  (* A slice of the tiny polybench kernels across all three pipeline
     configurations — small enough for the test suite, varied enough to
     exercise every raising path. *)
  let configs =
    [| Mlt.Pipeline.Mlt_linalg; Mlt.Pipeline.Mlt_blas;
       Mlt.Pipeline.Mlt_affine_blis |]
  in
  List.mapi
    (fun i (name, src) ->
      {
        Batch.Manifest.e_name = name;
        e_source = Batch.Manifest.Inline src;
        e_schedule = Mlt.Pipeline.Config configs.(i mod Array.length configs);
      })
    (W.tiny_suite ())

let result_by_name rp name =
  List.find
    (fun (r : Batch.Driver.entry_result) -> r.Batch.Driver.r_name = name)
    rp.Batch.Driver.rp_results

let test_four_domains_match_sequential_oracle () =
  let entries = stress_entries () in
  let manifest = Batch.Manifest.of_entries entries in
  let seq = Batch.Driver.run ~domains:1 manifest in
  let par = Batch.Driver.run ~domains:4 manifest in
  List.iter2
    (fun (s : Batch.Driver.entry_result) (p : Batch.Driver.entry_result) ->
      Alcotest.(check string)
        (s.Batch.Driver.r_name ^ " IR byte-identical")
        s.Batch.Driver.r_ir p.Batch.Driver.r_ir;
      Alcotest.(check string)
        (s.Batch.Driver.r_name ^ " stats identical")
        (Batch.Driver.result_signature s)
        (Batch.Driver.result_signature p))
    seq.Batch.Driver.rp_results par.Batch.Driver.rp_results;
  Alcotest.(check string) "aggregated pass stats identical"
    (Batch.Driver.summary_signature seq.Batch.Driver.rp_summary)
    (Batch.Driver.summary_signature par.Batch.Driver.rp_summary);
  Alcotest.(check int) "no failures" 0 (Batch.Driver.failed_count par)

(* Regression pin for the observability PR: wall-clock seconds and GC
   deltas ride in results and reports but must never reach a signature —
   otherwise cache-vs-fresh and parallel-vs-oracle comparisons turn
   flaky. Perturb both wildly and check the signatures cannot tell. *)
let test_signatures_exclude_wallclock_and_gc () =
  let entries = stress_entries () in
  let rp = Batch.Driver.run ~domains:1 (Batch.Manifest.of_entries entries) in
  let absurd_gc =
    {
      Ir.Pass.minor_words = 1e12;
      major_words = 1e12;
      promoted_words = 1e12;
      minor_collections = 12345;
      major_collections = 6789;
    }
  in
  let r = List.hd rp.Batch.Driver.rp_results in
  let r' =
    {
      r with
      Batch.Driver.r_seconds = r.Batch.Driver.r_seconds +. 3600.;
      r_summary =
        List.map
          (fun s -> { s with Ir.Pass.s_seconds = 999.; s_gc = absurd_gc })
          r.Batch.Driver.r_summary;
    }
  in
  Alcotest.(check string) "result_signature blind to seconds and GC"
    (Batch.Driver.result_signature r)
    (Batch.Driver.result_signature r');
  let perturbed =
    List.map
      (fun s -> { s with Ir.Pass.s_seconds = 999.; s_gc = absurd_gc })
      rp.Batch.Driver.rp_summary
  in
  Alcotest.(check string) "summary_signature blind to seconds and GC"
    (Batch.Driver.summary_signature rp.Batch.Driver.rp_summary)
    (Batch.Driver.summary_signature perturbed)

(* report.json carries the per-entry wall-clock aggregate, and when
   metrics are on the batch counters are bumped from the same
   aggregation as the report — the two artifacts must agree. *)
let test_report_metrics_agreement () =
  let entries = stress_entries () in
  Ir.Metrics.set_enabled true;
  let counter_before name =
    List.fold_left
      (fun acc s ->
        if s.Ir.Metrics.s_metric = name then
          match s.Ir.Metrics.s_value with
          | Ir.Metrics.V_counter n -> n
          | _ -> acc
        else acc)
      0
      (Ir.Metrics.snapshot ())
  in
  let done0 = counter_before "mlt_batch_entries_done" in
  let failed0 = counter_before "mlt_batch_entries_failed" in
  let rp, d1, f1 =
    Fun.protect ~finally:(fun () -> Ir.Metrics.set_enabled false) (fun () ->
        let rp =
          Batch.Driver.run ~domains:2 (Batch.Manifest.of_entries entries)
        in
        ( rp,
          counter_before "mlt_batch_entries_done",
          counter_before "mlt_batch_entries_failed" ))
  in
  Alcotest.(check int) "done counter tracks ok_count"
    (Batch.Driver.ok_count rp) (d1 - done0);
  Alcotest.(check int) "failed counter tracks failed_count"
    (Batch.Driver.failed_count rp)
    (f1 - failed0);
  (* total_entry_seconds is the sum of per-entry wall-clock and appears
     in the JSON report, adjacent to wall_seconds. *)
  let expect =
    List.fold_left
      (fun acc (r : Batch.Driver.entry_result) ->
        acc +. r.Batch.Driver.r_seconds)
      0. rp.Batch.Driver.rp_results
  in
  Alcotest.(check (float 1e-9)) "total_entry_seconds sums r_seconds" expect
    (Batch.Driver.total_entry_seconds rp);
  match Support.Json.parse (Batch.Driver.report_json rp) with
  | Error msg -> Alcotest.failf "report_json invalid: %s" msg
  | Ok j -> (
      match Support.Json.member "total_entry_seconds" j with
      | Some (Support.Json.Num n) ->
          Alcotest.(check (float 1e-9)) "report.json member agrees" expect n
      | _ -> Alcotest.fail "report.json lacks total_entry_seconds")

let test_random_order_qcheck =
  (* Manifest order must not matter: under any permutation, each entry
     compiles to exactly what the canonical sequential oracle produced
     for it, and the manifest-order aggregate is permutation-independent
     up to per-pass row order (compared via sorted signature lines). *)
  let entries = stress_entries () in
  let oracle =
    Batch.Driver.run ~domains:1 (Batch.Manifest.of_entries entries)
  in
  let sorted_lines rp =
    List.sort compare
      (String.split_on_char '\n'
         (Batch.Driver.summary_signature rp.Batch.Driver.rp_summary))
  in
  let n = List.length entries in
  let arb = QCheck.(array_of_size (Gen.return n) (int_bound 1_000_000)) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5 ~name:"randomized manifest order" arb
       (fun keys ->
         let order =
           List.map snd
             (List.sort compare
                (List.mapi (fun i e -> (keys.(i), e)) entries))
         in
         let rp =
           Batch.Driver.run ~domains:4 (Batch.Manifest.of_entries order)
         in
         List.iter
           (fun (r : Batch.Driver.entry_result) ->
             let o = result_by_name oracle r.Batch.Driver.r_name in
             if not (String.equal o.Batch.Driver.r_ir r.Batch.Driver.r_ir)
             then
               QCheck.Test.fail_reportf "IR diverged on %s"
                 r.Batch.Driver.r_name;
             if
               not
                 (String.equal
                    (Batch.Driver.result_signature o)
                    (Batch.Driver.result_signature r))
             then
               QCheck.Test.fail_reportf "stats diverged on %s"
                 r.Batch.Driver.r_name)
           rp.Batch.Driver.rp_results;
         sorted_lines rp = sorted_lines oracle))

let test_fault_isolation () =
  (* A parse error and a mid-pipeline diagnostic (two kernels where the
     pipeline takes one) in the middle of the manifest each fail exactly
     their own entry; every other entry still matches the oracle. *)
  let good = stress_entries () in
  let crash name src =
    {
      Batch.Manifest.e_name = name;
      e_source = Batch.Manifest.Inline src;
      e_schedule = Mlt.Pipeline.Config Mlt.Pipeline.Mlt_linalg;
    }
  in
  let crashes = [ "crash-parse"; "crash-two-kernels" ] in
  let entries =
    match good with
    | a :: b :: c :: rest ->
        a :: b
        :: crash "crash-parse" "void broken(float A[4]) {"
        :: c
        :: crash "crash-two-kernels"
             "void f(float A[4]) { for (int i = 0; i < 4; ++i) A[i] = 0.0; }\n\
              void g(float A[4]) { for (int i = 0; i < 4; ++i) A[i] = 1.0; }"
        :: rest
    | _ -> Alcotest.fail "stress manifest too short"
  in
  let oracle = Batch.Driver.run ~domains:1 (Batch.Manifest.of_entries good) in
  let rp = Batch.Driver.run ~domains:4 (Batch.Manifest.of_entries entries) in
  Alcotest.(check int) "exactly the crashing entries fail"
    (List.length crashes)
    (Batch.Driver.failed_count rp);
  List.iter
    (fun (r : Batch.Driver.entry_result) ->
      match (r.Batch.Driver.r_name, r.Batch.Driver.r_status) with
      | name, Batch.Driver.Failed msg when List.mem name crashes ->
          Alcotest.(check bool) "failure mentions a diagnostic" true
            (String.length msg > 0)
      | name, Batch.Driver.Done when List.mem name crashes ->
          Alcotest.failf "crashing entry %s reported Done" name
      | name, Batch.Driver.Failed msg ->
          Alcotest.failf "healthy entry %s failed: %s" name msg
      | name, Batch.Driver.Done ->
          Alcotest.(check string) (name ^ " unaffected by the crash")
            (result_by_name oracle name).Batch.Driver.r_ir
            r.Batch.Driver.r_ir)
    rp.Batch.Driver.rp_results

(* ---- dynamic claiming vs the oracle -------------------------------- *)

let test_skewed_manifest_matches_oracle () =
  (* One heavy matrix chain among many tiny entries, at an even index —
     where round-robin striping used to pin it to shard 0. Whichever
     worker claims it, the results must equal the sequential oracle. *)
  let chain =
    {
      Batch.Manifest.e_name = "chain";
      e_source =
        Batch.Manifest.Inline
          (W.matrix_chain
             [ 24; 40; 16; 56; 32; 48; 24; 64; 40; 16; 72; 32; 56; 24; 48; 40; 64 ]);
      e_schedule = Mlt.Pipeline.Config Mlt.Pipeline.Mlt_blas;
    }
  in
  let entries =
    match stress_entries () @ stress_entries () with
    | a :: b :: rest -> a :: b :: chain :: rest
    | short -> chain :: short
  in
  let manifest = Batch.Manifest.of_entries entries in
  let seq = Batch.Driver.run ~domains:1 manifest in
  let par = Batch.Driver.run ~domains:2 manifest in
  List.iter2
    (fun (s : Batch.Driver.entry_result) (p : Batch.Driver.entry_result) ->
      Alcotest.(check string)
        (s.Batch.Driver.r_name ^ " IR byte-identical")
        s.Batch.Driver.r_ir p.Batch.Driver.r_ir;
      Alcotest.(check string)
        (s.Batch.Driver.r_name ^ " result signature identical")
        (Batch.Driver.result_signature s)
        (Batch.Driver.result_signature p);
      Alcotest.(check bool)
        (p.Batch.Driver.r_name ^ " ran on a pool worker")
        true
        (p.Batch.Driver.r_shard >= 0 && p.Batch.Driver.r_shard < 2))
    seq.Batch.Driver.rp_results par.Batch.Driver.rp_results;
  Alcotest.(check string) "aggregated pass stats identical"
    (Batch.Driver.summary_signature seq.Batch.Driver.rp_summary)
    (Batch.Driver.summary_signature par.Batch.Driver.rp_summary);
  Alcotest.(check int) "no failures" 0 (Batch.Driver.failed_count par)

(* ---- dialect table filled at start-up ------------------------------- *)

let test_dialect_table_read_from_domains () =
  (* Each dialect library fills [Dialect]'s table while it initialises,
     before any second domain exists; afterwards every domain reads it
     without a lock. Four domains read it at once and verify a module
     (the verifier looks up each op's definition): all must see the
     whole table, one op of every dialect included. *)
  let expected = Dialect.registered_ops () in
  List.iter
    (fun name ->
      if not (List.mem name expected) then
        Alcotest.failf "%s not registered at start-up" name)
    [
      "arith.addf"; "memref.load"; "scf.for"; "affine.for"; "linalg.contract";
      "blas.sgemm"; "transform.tile";
    ];
  let read () =
    let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
    let verified = Verifier.verify_result m = Ok () in
    let complete =
      List.for_all
        (fun name ->
          match Dialect.lookup name with
          | Some d -> d.Dialect.od_name = name
          | None -> false)
        expected
    in
    (Dialect.registered_ops (), verified && complete)
  in
  let others = List.init 3 (fun _ -> Domain.spawn read) in
  let mine = read () in
  List.iter
    (fun (ops, ok) ->
      Alcotest.(check (list string)) "same table in every domain" expected ops;
      Alcotest.(check bool) "every lookup hits and the module verifies" true ok)
    (mine :: List.map Domain.join others)

(* ---- output filenames ---------------------------------------------- *)

let test_write_outputs_distinct_files () =
  (* "gemm#0" and "gemm_0" both sanitize to "gemm_0"; the manifest-index
     prefix must keep their .mlir outputs apart. *)
  let src = "void f(float A[4]) { for (int i = 0; i < 4; ++i) A[i] = 0.0; }" in
  let entries =
    List.map
      (fun name ->
        {
          Batch.Manifest.e_name = name;
          e_source = Batch.Manifest.Inline src;
          e_schedule = Mlt.Pipeline.Config Mlt.Pipeline.Mlt_linalg;
        })
      [ "gemm#0"; "gemm_0" ]
  in
  let rp = Batch.Driver.run ~domains:1 (Batch.Manifest.of_entries entries) in
  Alcotest.(check int) "both entries compiled" 2 (Batch.Driver.ok_count rp);
  let dir = Filename.temp_dir "mlt_batch_out" "" in
  Batch.Driver.write_outputs ~dir rp;
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir;
  Alcotest.(check (list string)) "one flat output file per manifest entry"
    [ "000-gemm_0.mlir"; "001-gemm_0.mlir"; "report.json" ]
    files

let suite =
  [
    Alcotest.test_case "parallel Id_gen.next bursts never collide" `Quick
      test_id_gen_parallel_unique;
    Alcotest.test_case "dialect table read alike from every domain" `Quick
      test_dialect_table_read_from_domains;
    Alcotest.test_case "sanitized-name collisions keep distinct outputs"
      `Quick test_write_outputs_distinct_files;
    Alcotest.test_case "parallel create_op bursts never collide" `Quick
      test_create_op_parallel_unique;
    Alcotest.test_case "listener stack restored when body raises" `Quick
      test_listener_stack_restored_on_raise;
    Alcotest.test_case "listener raising mid-notify still popped" `Quick
      test_listener_raising_mid_notify_still_popped;
    Alcotest.test_case "trace sink popped when body raises" `Quick
      test_trace_sink_restored_on_raise;
    Alcotest.test_case "remark sinks popped when body raises" `Quick
      test_remark_sink_restored_on_raise;
    Alcotest.test_case "4 domains match the sequential oracle" `Quick
      test_four_domains_match_sequential_oracle;
    test_random_order_qcheck;
    Alcotest.test_case "signatures exclude wall-clock and GC" `Quick
      test_signatures_exclude_wallclock_and_gc;
    Alcotest.test_case "metrics counters agree with the report" `Quick
      test_report_metrics_agreement;
    Alcotest.test_case "crashing input fails only its own entry" `Quick
      test_fault_isolation;
    Alcotest.test_case "skewed manifest on 2 domains matches the oracle"
      `Quick test_skewed_manifest_matches_oracle;
  ]
