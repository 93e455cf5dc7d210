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

let () = P.register_dialects ()

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

let test_run_applies_in_sequence () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let script =
    Script.of_steps
      [ Script.Canonicalize false; Script.Raise "linalg"; Script.Dce ]
  in
  Transform.Interp.run script (sole_func m);
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

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "six configs byte-identical to pinned IR digests"
      `Quick test_configs_match_pinned_digests;
    Alcotest.test_case "vectorized pluto elaborations match Pluto.apply"
      `Quick test_vectorized_pluto_matches_apply;
    Alcotest.test_case "Interp.run applies steps in sequence" `Quick
      test_run_applies_in_sequence;
    Alcotest.test_case "inapplicable step emits an analysis remark" `Quick
      test_inapplicable_step_remarks;
    Alcotest.test_case "applicable step reports its application count"
      `Quick test_applicable_step_counts;
    Alcotest.test_case "verifier rejects malformed scripts" `Quick
      test_verifier_rejections;
    Alcotest.test_case "custom schedule naming" `Quick test_schedule_names;
  ]
