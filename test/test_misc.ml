(* Remaining coverage: rewriter drivers, printer corner cases, workload
   metadata. *)

open Ir

let count_ops m name =
  let c = ref 0 in
  Core.walk m (fun op -> if String.equal op.Core.o_name name then incr c);
  !c

let test_sweeps_equals_greedy_on_lowering () =
  (* Both drivers must produce semantically equal results for the linalg
     lowering (sweeps is the fast path, greedy the reference). *)
  let src = Workloads.Polybench.gemm ~ni:8 ~nj:8 ~nk:8 () in
  let prep () =
    let m = Met.Emit_affine.translate src in
    ignore (Transforms.Tactics.raise_to_linalg m);
    m
  in
  let m1 = prep () and m2 = prep () in
  ignore
    (Rewriter.apply_greedily m1
       (Rewriter.freeze (Transforms.Lower_linalg.patterns ())));
  ignore
    (Rewriter.apply_sweeps m2
       (Rewriter.freeze (Transforms.Lower_linalg.patterns ())));
  Verifier.verify m1;
  Verifier.verify m2;
  Alcotest.(check bool) "drivers agree semantically" true
    (Interp.Eval.equivalent m1 m2 "gemm" ~seed:109)

let test_rewriter_diverging_pattern_detected () =
  (* A pattern that always rewrites in place never reaches a fixpoint; the
     driver must abort rather than spin. *)
  let m = Met.Emit_affine.translate (Workloads.Polybench.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let spin =
    Rewriter.pattern ~name:"spin" (fun ctx op ->
        if Affine.Affine_ops.is_load op then begin
          (* Re-create the same load before the old one, forever. *)
          let memref = Affine.Affine_ops.access_memref op in
          let map = Affine.Affine_ops.access_map op in
          let idx = Affine.Affine_ops.access_indices op in
          let v = Affine.Affine_ops.load ctx.Rewriter.builder memref (map, idx) in
          Rewriter.replace_op ctx op [ v ];
          true
        end
        else false)
  in
  match
    Support.Diag.wrap (fun () ->
        Rewriter.apply_greedily m (Rewriter.freeze [ spin ]))
  with
  | Ok _ -> Alcotest.fail "expected divergence detection"
  | Error msg ->
      Alcotest.(check bool) "mentions fixpoint" true
        (Astring_contains.contains msg "fixpoint")

let test_pattern_benefit_ordering () =
  (* Higher-benefit patterns apply first. *)
  let m = Met.Emit_affine.translate (Workloads.Polybench.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let hits = ref [] in
  let mk name benefit =
    Rewriter.pattern ~name ~benefit (fun _ op ->
        if Affine.Affine_ops.is_matmul op then false
        else if Affine.Affine_ops.is_store op && !hits = [] then begin
          hits := name :: !hits;
          false (* observe only *)
        end
        else false)
  in
  ignore (Rewriter.apply_greedily m (Rewriter.freeze [ mk "low" 1; mk "high" 9 ]));
  Alcotest.(check (list string)) "high first" [ "high" ] !hits

let test_equal_benefit_registration_order () =
  (* Equal-benefit patterns must be tried (and thus apply) in registration
     order, under both drivers and regardless of root declarations — the
     stable benefit sort is what makes greedy rewriting deterministic. *)
  let check_driver driver_name driver roots_a roots_b =
    let m =
      Met.Emit_affine.translate (Workloads.Polybench.mm ~ni:4 ~nj:4 ~nk:4 ())
    in
    let fired = ref [] in
    let mk name roots =
      Rewriter.pattern ~name ~benefit:3 ~roots (fun _ op ->
          if Affine.Affine_ops.is_store op && !fired = [] then begin
            fired := name :: !fired;
            Core.erase_op op;
            true
          end
          else false)
    in
    ignore
      (driver m
         (Rewriter.freeze [ mk "registered-first" roots_a; mk "registered-second" roots_b ]));
    Alcotest.(check (list string))
      (driver_name ^ ": first registered wins ties")
      [ "registered-first" ] !fired
  in
  let store_roots = Rewriter.Roots [ "affine.store" ] in
  List.iter
    (fun (name, driver) ->
      check_driver name driver Rewriter.Any Rewriter.Any;
      check_driver name driver store_roots store_roots;
      (* Mixed Any/rooted: the Any pattern merges into the candidate list
         at its sorted position, not appended after the rooted ones. *)
      check_driver name driver Rewriter.Any store_roots;
      check_driver name driver store_roots Rewriter.Any)
    [
      ("apply_greedily", Rewriter.apply_greedily);
      ("apply_greedily_fullsweep", Rewriter.apply_greedily_fullsweep);
    ]

let test_printer_parser_sgemv_transpose_attr () =
  let src =
    "void f(float A[4][6], float x[4], float y[6]) { for (int i = 0; i < \
     4; ++i) for (int j = 0; j < 6; ++j) y[j] += A[i][j] * x[i]; }"
  in
  let m =
    Mlt.Pipeline.prepare_schedule (Mlt.Pipeline.Config Mlt.Pipeline.Mlt_blas)
      src
  in
  Alcotest.(check int) "sgemv" 1 (count_ops m "blas.sgemv");
  let printed = Printer.op_to_string m in
  Alcotest.(check bool) "prints transpose attr" true
    (Astring_contains.contains printed "transpose = true");
  let m2 = Parser.parse_module printed in
  Alcotest.(check string) "roundtrips" printed (Printer.op_to_string m2);
  Alcotest.(check bool) "still equivalent" true
    (Interp.Eval.equivalent m m2 "f" ~seed:113)

let test_figure9_suite_metadata () =
  let suite = Workloads.Polybench.figure9_suite () in
  Alcotest.(check int) "sixteen kernels" 16 (List.length suite);
  List.iter
    (fun (name, src, flops) ->
      if flops <= 0. then Alcotest.failf "%s: non-positive flop count" name;
      (* Sources parse and contain exactly one kernel. *)
      match Met.C_parser.parse_program src with
      | [ _ ] -> ()
      | ks -> Alcotest.failf "%s: %d kernels" name (List.length ks))
    suite;
  let names = List.map (fun (n, _, _) -> n) suite in
  Alcotest.(check (list string)) "paper order"
    [
      "atax"; "bicg"; "gemver"; "gesummv"; "mvt"; "2mm"; "3mm"; "gemm";
      "conv2d-nchw"; "ab-acd-dbc"; "abc-acd-db"; "abc-ad-bdc"; "ab-cad-dcb";
      "abc-bda-dc"; "abcd-aebf-dfce"; "abcd-aebf-fdec";
    ]
    names

let test_trace_flop_count_matches_metadata () =
  (* The workload metadata flop counts agree with what the simulator
     actually executes for the pure-contraction kernels. *)
  List.iter
    (fun name ->
      let _, src, flops =
        List.find (fun (n, _, _) -> n = name) (Workloads.Polybench.figure9_suite ())
      in
      let f =
        Option.get
          (Core.find_func (Met.Emit_affine.translate src)
             (List.hd (Met.C_parser.parse_program src)).Met.C_ast.k_name)
      in
      let r = Machine.Perf.time_func Machine.Machine_model.intel_i9 f in
      let counted =
        r.Machine.Perf.stats.Machine.Trace.flops_scalar
        +. r.Machine.Perf.stats.Machine.Trace.flops_vector
      in
      if abs_float (counted -. flops) > flops *. 0.01 then
        Alcotest.failf "%s: metadata %g vs simulated %g" name flops counted)
    [ "gemm"; "conv2d-nchw"; "ab-acd-dbc" ]

let suite =
  [
    Alcotest.test_case "apply_sweeps = apply_greedily semantics" `Quick
      test_sweeps_equals_greedy_on_lowering;
    Alcotest.test_case "diverging pattern detected" `Quick
      test_rewriter_diverging_pattern_detected;
    Alcotest.test_case "pattern benefit ordering" `Quick
      test_pattern_benefit_ordering;
    Alcotest.test_case "equal-benefit ties keep registration order" `Quick
      test_equal_benefit_registration_order;
    Alcotest.test_case "sgemv transpose attr roundtrip" `Quick
      test_printer_parser_sgemv_transpose_attr;
    Alcotest.test_case "figure 9 suite metadata" `Quick
      test_figure9_suite_metadata;
    Alcotest.test_case "trace flops match metadata" `Quick
      test_trace_flop_count_matches_metadata;
  ]
