(* Rewriter match/rewrite counters as the pass manager and the batch
   driver report them: exact count pins over the Figure-9 suite, partial
   counts from a raising driver, domain-locality, and allocation bounds
   on the per-run bookkeeping. *)

open Ir
module W = Workloads.Polybench

(* One line per summary row and one per pattern row, wall-clock and GC
   fields left out. *)
let render_summary summaries =
  String.concat ""
    (List.concat_map
       (fun (s : Pass.summary) ->
         Printf.sprintf "%s runs=%d attempts=%d rewrites=%d ops_delta=%d\n"
           s.s_name s.s_runs s.s_match_attempts s.s_rewrites s.s_ops_delta
         :: List.map
              (fun (p : Rewriter.pattern_stat) ->
                Printf.sprintf "  . %s attempts=%d hits=%d activations=%d\n"
                  p.ps_name p.ps_attempts p.ps_hits p.ps_activations)
              s.s_patterns)
       summaries)

(* Exact figures: a change to how the drivers count and report must not
   move any of them. *)
let expected_figure9_with_mlt =
  {|transform.canonicalize runs=16 attempts=54 rewrites=0 ops_delta=0
  . fold-float-identities attempts=54 hits=0 activations=16
transform.raise[linalg] runs=16 attempts=86 rewrites=41 ops_delta=-302
  . CONV2D_NCHW attempts=1 hits=1 activations=16
  . GEMM attempts=6 hits=6 activations=16
  . MATVEC attempts=11 hits=6 activations=16
  . MATVEC_T attempts=5 hits=4 activations=16
  . TTGT_ab_acd_dbc attempts=5 hits=1 activations=16
  . TTGT_ab_cad_dcb attempts=2 hits=1 activations=16
  . TTGT_abc_acd_db attempts=4 hits=1 activations=16
  . TTGT_abc_ad_bdc attempts=3 hits=1 activations=16
  . TTGT_abc_bda_dc attempts=1 hits=1 activations=16
  . TTGT_abcd_aebf_dfce attempts=2 hits=1 activations=16
  . TTGT_abcd_aebf_fdec attempts=1 hits=1 activations=16
  . raise-fill attempts=45 hits=17 activations=16
transform.lower_linalg runs=16 attempts=73 rewrites=73 ops_delta=543
  . lower-linalg attempts=73 hits=73 activations=16
transform.lower_affine runs=16 attempts=380 rewrites=380 ops_delta=1023
  . affine-access-to-memref attempts=189 hits=189 activations=16
  . affine-apply-to-arith attempts=0 hits=0 activations=16
  . affine-for-to-scf attempts=191 hits=191 activations=16
|}

let test_figure9_count_pins () =
  let pm = Pass.create_manager () in
  let sources = List.map (fun (_, s, _) -> s) (W.figure9_suite ()) in
  let attempts0, rewrites0 = Rewriter.counter_totals () in
  ignore (Mlt.Pipeline.compile_time ~pm `With_mlt sources : float);
  let attempts1, rewrites1 = Rewriter.counter_totals () in
  let rows = Pass.summarize pm in
  let got = render_summary rows in
  Alcotest.(check string) "with-mlt summary rows" expected_figure9_with_mlt got;
  (* Every driver run happens inside some pass, so the per-pass rows
     account for exactly the work the domain's totals saw. *)
  let attempts, rewrites =
    List.fold_left
      (fun (a, r) s -> (a + s.Pass.s_match_attempts, r + s.Pass.s_rewrites))
      (0, 0) rows
  in
  Alcotest.(check (pair int int)) "per-pass rows sum to the domain totals"
    (attempts1 - attempts0, rewrites1 - rewrites0)
    (attempts, rewrites)

let expected_batch_digest = "9f45ef942a8dd84ce55cb69e7bd27933"

let batch_digest domains =
  let manifest =
    Batch.Manifest.load
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "../examples/kernels/batch_manifest.json")
  in
  let rp = Batch.Driver.run ~domains manifest in
  List.map Batch.Driver.result_signature rp.Batch.Driver.rp_results
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let test_batch_signature_pin () =
  let d1 = batch_digest 1 and d2 = batch_digest 2 in
  Alcotest.(check string) "1 domain" expected_batch_digest d1;
  Alcotest.(check string) "2 domains" expected_batch_digest d2

(* A pattern that matches nothing and raises a located error on its
   third attempt. *)
let raising_on_third_attempt () =
  let attempts = ref 0 in
  let loc = Support.Loc.make ~file:"k.c" ~line:3 ~col:1 in
  Rewriter.pattern ~name:"boom-on-third" (fun _ _ ->
      incr attempts;
      if !attempts = 3 then raise (Support.Diag.Error (loc, "boom"));
      false)

let test_raising_driver_keeps_partial_counts () =
  let frozen = Rewriter.freeze [ raising_on_third_attempt () ] in
  let pm = Pass.create_manager () in
  Pass.add pm
    (Pass.make ~name:"transform.raising" (fun root ->
         ignore (Rewriter.apply_greedily root frozen : int)));
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let attempts0, rewrites0 = Rewriter.counter_totals () in
  (match Support.Diag.wrap (fun () -> Pass.run pm m) with
  | Ok () -> Alcotest.fail "expected the third attempt to raise"
  | Error msg ->
      Alcotest.(check bool) "located" true
        (Astring_contains.contains msg "k.c:3:1"));
  let attempts1, rewrites1 = Rewriter.counter_totals () in
  Alcotest.(check (pair int int)) "counter_totals advanced by the attempts"
    (3, 0)
    (attempts1 - attempts0, rewrites1 - rewrites0);
  match Pass.timings pm with
  | [ t ] ->
      Alcotest.(check int) "match_attempts" 3 t.Pass.match_attempts;
      Alcotest.(check int) "rewrites" 0 t.Pass.rewrites;
      Alcotest.(check string) "pattern row"
        "transform.raising runs=1 attempts=3 rewrites=0 ops_delta=0\n\
        \  . boom-on-third attempts=3 hits=0 activations=1\n"
        (render_summary (Pass.summarize pm))
  | ts -> Alcotest.failf "expected one timing entry, got %d" (List.length ts)

(* A run on another domain reaches neither the caller's tallies nor its
   totals; the same run on the caller reaches both. *)
let test_tallies_are_domain_local () =
  let never =
    Rewriter.freeze [ Rewriter.pattern ~name:"never" (fun _ _ -> false) ]
  in
  let run () =
    let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
    let a0, _ = Rewriter.counter_totals () in
    ignore (Rewriter.apply_greedily m never : int);
    fst (Rewriter.counter_totals ()) - a0
  in
  let t = Rewriter.tally () in
  let caller0 = Rewriter.counter_totals () in
  let spawned =
    Rewriter.with_tally t (fun () -> Domain.join (Domain.spawn run))
  in
  Alcotest.(check bool) "spawned domain's totals advanced" true (spawned > 0);
  let attempts, _, rows = Rewriter.tally_counts t in
  Alcotest.(check int) "caller's tally saw no attempts" 0 attempts;
  Alcotest.(check int) "caller's tally has no rows" 0 (List.length rows);
  Alcotest.(check (pair int int)) "caller's totals unchanged" caller0
    (Rewriter.counter_totals ());
  let local = Rewriter.with_tally t run in
  Alcotest.(check int) "same run on the caller" spawned local;
  let attempts, _, _ = Rewriter.tally_counts t in
  Alcotest.(check int) "caller's tally sees its own run" local attempts

(* Minor words allocated by one call of [f], after one warm-up call. *)
let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* A driver run's bookkeeping is two arrays sized to its set and one
   publish when it ends; a pass's is one tally. Resolving a counter row
   per pattern name on every run cost about 600 and 850 words. *)
let test_bookkeeping_allocation () =
  let set = Transforms.Tactics.linalg_set () in
  let f = Core.create_func ~name:"empty" ~arg_types:[] () in
  let driver = minor_words (fun () -> Rewriter.apply_greedily f set) in
  let pm = Pass.create_manager () in
  Pass.add pm (Pass.make ~name:"noop" ignore);
  let pass =
    minor_words (fun () ->
        Pass.run pm f;
        Pass.clear_timings pm)
  in
  Alcotest.(check bool)
    (Printf.sprintf "linalg-set driver run allocates %.0f <= 450 words" driver)
    true (driver <= 450.);
  Alcotest.(check bool)
    (Printf.sprintf "no-op pass allocates %.0f <= 400 words" pass)
    true (pass <= 400.)

let suite =
  [
    Alcotest.test_case "figure-9 with-mlt count pins" `Quick
      test_figure9_count_pins;
    Alcotest.test_case "batch manifest signature pin" `Quick
      test_batch_signature_pin;
    Alcotest.test_case "raising driver keeps partial counts" `Quick
      test_raising_driver_keeps_partial_counts;
    Alcotest.test_case "tallies are domain-local" `Quick
      test_tallies_are_domain_local;
    Alcotest.test_case "bookkeeping allocation bounds" `Quick
      test_bookkeeping_allocation;
  ]
