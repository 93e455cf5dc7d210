(* The transform dialect: script construction, printer/parser
   round-trips (QCheck over random valid scripts), interpretation
   against payloads, byte-identity of every pipeline configuration's
   script elaboration with pinned IR digests, per-step inapplicability
   remarks, and verifier rejections. *)

open Ir
module T = Transforms
module Script = Transform.Script
module W = Workloads.Polybench
module P = Mlt.Pipeline

(* ---- random scripts round-trip through the parser ---------------------- *)

let gen_step =
  let open QCheck.Gen in
  oneof
    [
      map (fun sizes -> Script.Tile sizes)
        (list_size (int_range 1 3) (int_range 1 64));
      return Script.Interchange;
      map (fun h -> Script.Fuse h)
        (oneofl
           [ T.Loop_fuse.No_fuse; T.Loop_fuse.Smart_fuse; T.Loop_fuse.Max_fuse ]);
      map (fun f -> Script.Unroll f) (int_range 2 16);
      return Script.Lower_affine;
      map (fun t -> Script.Lower_linalg t)
        (oneof [ return None; map Option.some (int_range 2 64) ]);
      map3
        (fun mc nc kc -> Script.Blis_schedule { T.Blis_schedule.mc; nc; kc })
        (int_range 1 256) (int_range 1 512) (int_range 1 256);
      map (fun s -> Script.Raise s)
        (oneofl [ "linalg"; "affine-matmul"; "affine" ]);
      map (fun b -> Script.Canonicalize b) bool;
      return Script.Delinearize;
      return Script.Dce;
      return Script.Reorder_chains;
      return Script.To_blas;
    ]

let arb_steps =
  QCheck.make
    ~print:(fun steps ->
      String.concat "; " (List.map Script.step_name steps))
    QCheck.Gen.(list_size (int_range 0 8) gen_step)

let prop_roundtrip =
  QCheck.Test.make ~name:"random scripts: print/parse round-trip" ~count:200
    arb_steps (fun steps ->
      let text = Script.print (Script.of_steps steps) in
      let steps' = Script.parse_steps ~file:"roundtrip.mlir" text in
      List.length steps = List.length steps'
      && List.for_all2 Script.equal_step steps steps'
      (* And printing is a fixpoint: parse . print . parse = parse. *)
      && String.equal text (Script.print (Script.of_steps steps')))

(* ---- every config's script reproduces the pinned IR ------------------- *)

(* Digests of the IR each configuration printed when it was still a
   hard-coded pass list (the scripts were byte-identical to those lists
   then); a change here is a change to the compiler's output. *)
let config_digests =
  [
    ("clang-O3", "mm", "96152b990393f530bafb525af271f169");
    ("clang-O3", "2mm", "7a1c91108a7ba606b784fdc62bdf09cf");
    ("pluto-default", "mm", "0ba590f692e9f6c0c923d6268a469a80");
    ("pluto-default", "2mm", "78d0eff9bcebda0bccc8f5ec8a40e400");
    ("pluto-best", "mm", "0ba590f692e9f6c0c923d6268a469a80");
    ("pluto-best", "2mm", "78d0eff9bcebda0bccc8f5ec8a40e400");
    ("mlt-linalg", "mm", "0ba590f692e9f6c0c923d6268a469a80");
    ("mlt-linalg", "2mm", "78d0eff9bcebda0bccc8f5ec8a40e400");
    ("mlt-blas", "mm", "a6a206b4be87f548aabca0cb822fd865");
    ("mlt-blas", "2mm", "acbb2d8a2186f7c4dce31e8b3a3f5b03");
    ("mlt-affine-blis", "mm", "654ed3670309089b2c3c1f5f70c4ca09");
    ("mlt-affine-blis", "2mm", "0084b8db6910657c88ceacd146daea1a");
  ]

let sole_func m =
  List.find Core.is_func (Core.ops_of_block (Core.module_block m))

let test_configs_match_pinned_digests () =
  let kernels =
    [
      ("mm", W.mm ~ni:8 ~nj:8 ~nk:8 ());
      ("2mm", W.two_mm ~ni:8 ~nj:8 ~nk:8 ~nl:8 ());
    ]
  in
  List.iter
    (fun config ->
      List.iter
        (fun (kname, src) ->
          let cname = P.config_name config in
          let m = P.prepare_schedule (P.Config config) src in
          let _, _, expected =
            List.find
              (fun (c, k, _) -> String.equal c cname && String.equal k kname)
              config_digests
          in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s matches the pinned IR digest" cname
               kname)
            expected
            (Support.Digest.string (Printer.op_to_string m)))
        kernels)
    P.all_configs

(* The vectorizing Pluto elaboration (interchange + fast_math marking)
   must match Pluto.apply too — it is what the tuner's sweep runs. *)
let test_vectorized_pluto_matches_apply () =
  let src = W.mm ~ni:8 ~nj:8 ~nk:8 () in
  List.iter
    (fun (cfg : T.Pluto.config) ->
      let legacy = Met.Emit_affine.translate src in
      T.Pluto.apply cfg (sole_func legacy);
      Verifier.verify legacy;
      let scripted = Met.Emit_affine.translate src in
      let compiled = Transform.Interp.compile_steps (Script.of_pluto cfg) in
      List.iter
        (fun c -> ignore (Transform.Interp.apply_step c (sole_func scripted)))
        compiled;
      Verifier.verify scripted;
      Alcotest.(check string)
        (T.Pluto.config_to_string cfg ^ " matches Pluto.apply")
        (Printer.op_to_string legacy)
        (Printer.op_to_string scripted))
    [
      { T.Pluto.tile = 16; fusion = T.Loop_fuse.Smart_fuse; vectorize = true };
      { T.Pluto.tile = 1; fusion = T.Loop_fuse.Max_fuse; vectorize = true };
      { T.Pluto.tile = 32; fusion = T.Loop_fuse.No_fuse; vectorize = false };
    ]

(* ---- interpretation details -------------------------------------------- *)

let test_compile_applies_in_sequence () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let script =
    Script.of_steps
      [ Script.Canonicalize false; Script.Raise "linalg"; Script.Dce ]
  in
  List.iter
    (fun c -> ignore (Transform.Interp.apply_step c (sole_func m)))
    (Transform.Interp.compile script);
  Verifier.verify m;
  let raised = ref 0 in
  Core.walk m (fun op ->
      if String.starts_with ~prefix:"linalg." op.Core.o_name then incr raised);
  Alcotest.(check bool) "raised to linalg" true (!raised >= 1)

let test_inapplicable_step_remarks () =
  (* A payload with no linalg ops: lower_linalg applies nowhere and must
     say so through the remark layer. *)
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let remarks = ref [] in
  let count =
    Remark.with_sink
      (fun r -> remarks := r :: !remarks)
      (fun () ->
        let compiled =
          Transform.Interp.compile_steps [ Script.Lower_linalg None ]
        in
        Transform.Interp.apply_step (List.hd compiled) (sole_func m))
  in
  Alcotest.(check int) "applied to nothing" 0 count;
  match
    List.filter
      (fun r ->
        r.Remark.r_kind = Remark.Analysis
        && r.Remark.r_context = Some "transform")
      !remarks
  with
  | [ r ] ->
      Alcotest.(check bool) "remark names the step" true
        (Astring_contains.contains r.Remark.r_message "transform.lower_linalg")
  | rs ->
      Alcotest.failf "expected exactly one inapplicability remark, got %d"
        (List.length rs)

let test_applicable_step_counts () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let compiled = Transform.Interp.compile_steps [ Script.Tile [ 4 ] ] in
  let count = Transform.Interp.apply_step (List.hd compiled) (sole_func m) in
  Alcotest.(check int) "one tiled nest" 1 count

(* ---- located step errors ------------------------------------------------ *)

(* A step that cannot transform the payload fails at the offending loop:
   tiling a loop from 1 (pluto-default), lowering a tiled nest's [min]
   bound. A step error with no position of its own is re-raised at the
   payload's location, prefixed by the step name. *)
let test_step_errors_are_located () =
  let located what ~at ~has f =
    match f () with
    | _ -> Alcotest.failf "%s: expected an error" what
    | exception Support.Diag.Error (loc, msg) ->
        let got = Support.Diag.to_string loc msg in
        if not (String.starts_with ~prefix:at got && Astring_contains.contains msg has)
        then Alcotest.failf "%s: %s, expected %s... %s" what got at has
  in
  let from1 =
    "void f(float A[65][65]) {\n  for (int i = 1; i < 64; ++i)\n    for (int \
     j = 0; j < 64; ++j)\n      A[i][j] = A[i][j] + 1.0;\n}\n"
  in
  located "tile from 1 (pluto-default)" ~at:"from1.c:2:3: "
    ~has:"tile: loop bounds must be constant" (fun () ->
      P.prepare_schedule ~file:"from1.c" (P.Config P.Pluto_default) from1);
  (* Tiling builds each loop under the location of the loop it
     replaces: the lowering error is at the tiled nest's own line, not
     at the function's first loop. *)
  let two_nests =
    "void f(float A[6][6], float B[6]) {\n  for (int i = 0; i < 6; ++i)\n    \
     B[i] = 0.0;\n  for (int i = 0; i < 6; ++i)\n    for (int j = 0; j < 6; \
     ++j)\n      A[i][j] = A[i][j] + B[j];\n}\n"
  in
  located "lower a tiled nest" ~at:"two.c:4:3: "
    ~has:"lower-affine: min/max loop bounds" (fun () ->
      let f = sole_func (Met.Emit_affine.translate ~file:"two.c" two_nests) in
      List.iter
        (fun c -> ignore (Transform.Interp.apply_step c f))
        (Transform.Interp.compile_steps [ Script.Tile [ 4 ]; Script.Lower_affine ]));
  let mm () =
    sole_func (Met.Emit_affine.translate ~file:"mm.c" (W.mm ~ni:6 ~nj:6 ~nk:6 ()))
  in
  let boom =
    {
      Transform.Interp.c_name = "transform.boom";
      c_loc = Support.Loc.unknown;
      c_apply = (fun _ -> Support.Diag.errorf "boom");
    }
  in
  let f = mm () in
  let first = List.hd (Affine.Loops.top_level_loops f) in
  located "unlocated step error"
    ~at:(Support.Loc.to_string first.Core.o_loc ^ ": ")
    ~has:"transform.boom: boom" (fun () -> Transform.Interp.apply_step boom f)

(* ---- rejection of malformed scripts ------------------------------------ *)

let rejects name text =
  match Script.parse ~file:(name ^ ".mlir") text with
  | exception Support.Diag.Error _ -> ()
  | _ -> Alcotest.failf "%s: malformed script accepted" name

let test_verifier_rejections () =
  rejects "empty-sizes"
    "builtin.module { \"transform.tile\"() {sizes = []} : () -> () }";
  rejects "zero-tile"
    "builtin.module { \"transform.tile\"() {sizes = [0]} : () -> () }";
  rejects "bad-heuristic"
    "builtin.module { \"transform.fuse\"() {heuristic = \"speedfuse\"} : () \
     -> () }";
  rejects "unroll-by-one"
    "builtin.module { \"transform.unroll\"() {factor = 1} : () -> () }";
  rejects "unknown-raise-set"
    "builtin.module { \"transform.raise\"() {set = \"mlir\"} : () -> () }";
  rejects "missing-blocking"
    "builtin.module { \"transform.blis_schedule\"() {mc = 64} : () -> () }";
  rejects "stray-attr"
    "builtin.module { \"transform.dce\"() {level = 3} : () -> () }";
  rejects "not-a-transform-op"
    "builtin.module { \"arith.constant\"() {value = 1} : () -> () }"

let test_schedule_names () =
  let s = P.schedule_of_steps [ Script.Tile [ 16 ] ] in
  (match s with
  | P.Custom { name; _ } ->
      Alcotest.(check bool) "digest-derived name" true
        (String.starts_with ~prefix:"script:" name)
  | P.Config _ -> Alcotest.fail "expected a custom schedule");
  let s2 = P.schedule_of_steps [ Script.Tile [ 16 ] ] in
  Alcotest.(check string) "equal scripts, equal default names"
    (P.schedule_name s) (P.schedule_name s2);
  Alcotest.(check string) "explicit name wins" "mine"
    (P.schedule_name (P.schedule_of_steps ~name:"mine" [ Script.Dce ]))

(* ---- the compile path allocates little -------------------------------- *)

(* Minor words allocated by one call of [f] (a deterministic proxy for
   its cost: the same code allocates the same words on every host). *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* The built-in tactic sets are compiled from TDL and frozen once per
   process, so compiling a raising script after the first time only
   builds its step closures (a few hundred words; compiling and
   freezing the linalg set alone takes about 27,000). *)
let test_compile_steps_reuse_tactic_sets () =
  List.iter
    (fun config ->
      let steps = P.steps_of_config config in
      ignore (Transform.Interp.compile_steps steps);
      let words =
        minor_words (fun () -> Transform.Interp.compile_steps steps)
      in
      Alcotest.(check bool)
        (Printf.sprintf "compile_steps %s allocates %.0f < 2000 words"
           (P.config_name config) words)
        true (words < 2000.))
    [ P.Mlt_linalg; P.Mlt_blas ];
  Alcotest.(check bool) "one frozen linalg set" true
    (T.Tactics.linalg_set () == T.Tactics.linalg_set ());
  Alcotest.(check bool) "one frozen affine-matmul set" true
    (T.Tactics.affine_matmul_set () == T.Tactics.affine_matmul_set ())

(* The printer emits straight into one buffer: about 1,900 words for
   this 865-byte module, where going through [Format] took 8,898. *)
let test_printer_allocation () =
  let m = P.prepare_schedule (P.Config P.Clang_O3) (W.gemm ()) in
  ignore (Printer.op_to_string m);
  let words = minor_words (fun () -> Printer.op_to_string m) in
  Alcotest.(check bool)
    (Printf.sprintf "printing the clang-O3 gemm allocates %.0f < 4500 words"
       words)
    true (words < 4500.)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "six configs byte-identical to pinned IR digests"
      `Quick test_configs_match_pinned_digests;
    Alcotest.test_case "vectorized pluto elaborations match Pluto.apply"
      `Quick test_vectorized_pluto_matches_apply;
    Alcotest.test_case "compiled steps run in sequence" `Quick
      test_compile_applies_in_sequence;
    Alcotest.test_case "inapplicable step emits an analysis remark" `Quick
      test_inapplicable_step_remarks;
    Alcotest.test_case "applicable step reports its application count"
      `Quick test_applicable_step_counts;
    Alcotest.test_case "step errors are located" `Quick
      test_step_errors_are_located;
    Alcotest.test_case "verifier rejects malformed scripts" `Quick
      test_verifier_rejections;
    Alcotest.test_case "custom schedule naming" `Quick test_schedule_names;
    Alcotest.test_case "compile_steps reuses the frozen tactic sets" `Quick
      test_compile_steps_reuse_tactic_sets;
    Alcotest.test_case "printer allocation on the clang-O3 gemm" `Quick
      test_printer_allocation;
  ]
