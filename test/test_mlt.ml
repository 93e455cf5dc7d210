(* Tests for the core MLT library: tactics registry, matrix-chain
   reordering, the Linalg->BLAS conversion, and the end-to-end pipelines
   (all validated against the interpreter). *)

open Ir
module W = Workloads.Polybench
module MC = Transforms.Matrix_chain
module Tactics = Transforms.Tactics
module Raise_chain = Transforms.Raise_chain
module To_blas = Transforms.To_blas

let count_ops m name =
  let c = ref 0 in
  Core.walk m (fun op -> if String.equal op.Core.o_name name then incr c);
  !c

(* --- matrix chain DP --------------------------------------------------- *)

let test_chain_cormen_example () =
  (* CLRS classic: dims 30x35x15x5x10x20x25, optimal cost 15125. *)
  let dims = [| 30; 35; 15; 5; 10; 20; 25 |] in
  let _, cost = MC.optimal dims in
  Alcotest.(check (float 0.)) "clrs optimal" 15125. cost

let test_chain_paper_example () =
  (* §5.3: 800x1100, 1100x1200, 1200x100. *)
  let dims = [| 800; 1100; 1200; 100 |] in
  let t_opt, c_opt = MC.optimal dims in
  let _, c_left = MC.left_assoc dims in
  Alcotest.(check (float 0.)) "left-assoc mults" 1.152e9 c_left;
  Alcotest.(check (float 0.)) "optimal mults" 2.2e8 c_opt;
  Alcotest.(check string) "optimal shape" "(A1x(A2xA3))" (MC.to_string t_opt)

let test_chain_table2_orders () =
  (* Table II: the optimal parenthesizations reported by the paper. *)
  let cases =
    [
      ([| 800; 1100; 900; 1200; 100 |], "(A1x(A2x(A3xA4)))");
      ([| 1000; 2000; 900; 1500; 600; 800 |], "((A1x(A2x(A3xA4)))xA5)");
      ( [| 1500; 400; 2000; 2200; 600; 1400; 1000 |],
        "(A1x((((A2xA3)xA4)xA5)xA6))" );
    ]
  in
  List.iter
    (fun (dims, expected) ->
      let t, _ = MC.optimal dims in
      Alcotest.(check string) "parenthesization" expected (MC.to_string t))
    cases

let prop_chain_optimal_matches_brute_force =
  QCheck.Test.make ~name:"DP = brute force on random chains" ~count:100
    QCheck.(list_of_size (Gen.int_range 3 7) (int_range 1 50))
    (fun dims_list ->
      QCheck.assume (List.length dims_list >= 3);
      let dims = Array.of_list dims_list in
      let _, c1 = MC.optimal dims in
      let _, c2 = MC.brute_force dims in
      c1 = c2)

let prop_chain_optimal_never_worse =
  QCheck.Test.make ~name:"optimal <= left-assoc" ~count:200
    QCheck.(list_of_size (Gen.int_range 3 9) (int_range 1 100))
    (fun dims_list ->
      QCheck.assume (List.length dims_list >= 3);
      let dims = Array.of_list dims_list in
      let _, c1 = MC.optimal dims in
      let _, c2 = MC.left_assoc dims in
      c1 <= c2)

(* --- fill tactic -------------------------------------------------------- *)

let test_fill_raising () =
  let src =
    "void f(float C[6][8]) { for (int i = 0; i < 6; ++i) for (int j = 0; j \
     < 8; ++j) C[i][j] = 0.0; }"
  in
  let m = Met.Emit_affine.translate src in
  let n = Rewriter.apply_greedily m (Rewriter.freeze [ Tactics.fill_pattern () ]) in
  Alcotest.(check int) "raised" 1 n;
  Alcotest.(check int) "fill op" 1 (count_ops m "linalg.fill");
  (* Partial initialization must not raise. *)
  let src2 =
    "void f(float C[6][8]) { for (int i = 0; i < 3; ++i) for (int j = 0; j \
     < 8; ++j) C[i][j] = 0.0; }"
  in
  let m2 = Met.Emit_affine.translate src2 in
  Alcotest.(check int) "partial not raised" 0
    (Rewriter.apply_greedily m2 (Rewriter.freeze [ Tactics.fill_pattern () ]))

(* --- chain detection and reordering ------------------------------------ *)

let chain_module dims =
  let m = Met.Emit_affine.translate (W.matrix_chain dims) in
  let f = Option.get (Core.find_func m "chain") in
  ignore (Tactics.raise_to_linalg f);
  (m, f)

let test_chain_detection () =
  let _, f = chain_module [ 8; 9; 10; 11 ] in
  match Raise_chain.detect f with
  | [ chain ] ->
      Alcotest.(check int) "two matmuls" 2
        (List.length chain.Raise_chain.matmuls);
      Alcotest.(check int) "three inputs" 3
        (List.length chain.Raise_chain.inputs)
  | chains -> Alcotest.failf "expected 1 chain, got %d" (List.length chains)

let test_chain_m_op_listing9 () =
  (* Listing 9: m_Op<MatmulOp> chained through the last-writer relation. *)
  let _, f = chain_module [ 8; 9; 10; 11; 12 ] in
  let matmuls = ref [] in
  Core.walk f (fun op ->
      if Linalg.Linalg_ops.is_matmul op then matmuls := op :: !matmuls);
  let last = List.hd !matmuls in
  let def v = Raise_chain.last_writer ~anchor:last v in
  (* Match from the last matmul's first operand: produced by a matmul whose
     own first operand is produced by yet another matmul. *)
  let open Matchers.Op_match in
  let pat =
    op "linalg.matmul" [ op "linalg.matmul" [ any; any; any ]; any; any ]
  in
  Alcotest.(check bool) "chain matched through buffers" true
    (matches ~def pat (Core.operand last 0))

let test_chain_reorder_semantics () =
  (* Table II chain 1 scaled down; reordering must preserve semantics. *)
  let dims = [ 16; 22; 18; 24; 2 ] in
  let reference = Met.Emit_affine.translate (W.matrix_chain dims) in
  let m, f = chain_module dims in
  let n = Raise_chain.reorder f in
  Alcotest.(check int) "one chain rewritten" 1 n;
  Verifier.verify m;
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference m "chain" ~seed:77)

let test_chain_reorder_structure () =
  let dims = [ 16; 22; 18; 24; 2 ] in
  let _, f = chain_module dims in
  ignore (Raise_chain.reorder f);
  (* Optimal for (16,22,18,24,2) per DP. *)
  let t, _ = MC.optimal (Array.of_list dims |> Array.map Fun.id) in
  (* The rewritten function has 3 matmuls still. *)
  let matmul_count = ref 0 in
  Core.walk f (fun op ->
      if Linalg.Linalg_ops.is_matmul op then incr matmul_count);
  Alcotest.(check int) "three matmuls" 3 !matmul_count;
  ignore t

let test_chain_already_optimal_untouched () =
  (* Square chain: left-assoc is already optimal; nothing to rewrite. *)
  let dims = [ 8; 8; 8; 8 ] in
  let _, f = chain_module dims in
  Alcotest.(check int) "no rewrite" 0 (Raise_chain.reorder f)

(* --- linalg -> blas ------------------------------------------------------ *)

let test_to_blas_conversion () =
  let m = Met.Emit_affine.translate (W.gemm ~ni:8 ~nj:8 ~nk:8 ()) in
  let f = Option.get (Core.find_func m "gemm") in
  ignore (Tactics.raise_to_linalg f);
  ignore (To_blas.run f);
  Alcotest.(check int) "sgemm call" 1 (count_ops m "blas.sgemm");
  Alcotest.(check int) "no linalg.matmul" 0 (count_ops m "linalg.matmul")

let test_to_blas_preserves_semantics () =
  let src = W.gemm ~ni:8 ~nj:8 ~nk:8 () in
  let reference = Met.Emit_affine.translate src in
  let m = Met.Emit_affine.translate src in
  let f = Option.get (Core.find_func m "gemm") in
  ignore (Tactics.raise_to_linalg f);
  ignore (To_blas.run f);
  Transforms.Lower_linalg.run f;
  Verifier.verify m;
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference m "gemm" ~seed:3)

(* --- pipelines ------------------------------------------------------------ *)

let test_pipelines_preserve_semantics () =
  (* Every Figure-9 configuration must compute the same function as the
     plain translation, for every kernel of the tiny suite. Pluto-best is
     checked as the winning script of its search on one machine. *)
  let machine = Machine.Machine_model.amd_2920x in
  List.iter
    (fun (kname, src) ->
      let reference = Met.Emit_affine.translate src in
      let fname =
        (List.hd (Met.C_parser.parse_program src)).Met.C_ast.k_name
      in
      List.iter
        (fun config ->
          let schedule, _ =
            Mlt.Pipeline.resolve_schedule machine src
              (Mlt.Pipeline.Config config)
          in
          let m = Mlt.Pipeline.prepare_schedule schedule src in
          if not (Interp.Eval.equivalent reference m fname ~seed:13) then
            Alcotest.failf "%s under %s: semantics changed" kname
              (Mlt.Pipeline.config_name config))
        Mlt.Pipeline.all_figure9_configs)
    (W.tiny_suite ())

let test_pipeline_sec51_semantics () =
  let src = W.mm ~ni:8 ~nj:8 ~nk:8 () in
  let reference = Met.Emit_affine.translate src in
  let m =
    Mlt.Pipeline.prepare_schedule
      (Mlt.Pipeline.Config Mlt.Pipeline.Mlt_affine_blis) src
  in
  Alcotest.(check int) "affine.matmul" 1 (count_ops m "affine.matmul");
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference m "mm" ~seed:4)

let test_pipeline_mlt_blas_raises_gemm () =
  let m =
    Mlt.Pipeline.prepare_schedule (Mlt.Pipeline.Config Mlt.Pipeline.Mlt_blas)
      (W.gemm ~ni:16 ~nj:16 ~nk:16 ())
  in
  Alcotest.(check int) "sgemm" 1 (count_ops m "blas.sgemm")

let test_fig8_callsite_counts () =
  (* Figure 8: detected callsites vs oracle. *)
  let n = 16 in
  let cases =
    [
      ("mm", W.mm ~ni:n ~nj:n ~nk:n (), 1);
      ("2mm", W.two_mm ~ni:n ~nj:n ~nk:n ~nl:n (), 2);
      ("3mm", W.three_mm ~ni:n ~nj:n ~nk:n ~nl:n ~nm:n (), 3);
      ("darknet", W.darknet_gemm ~m:n ~n ~k:n (), 0 (* oracle: 1; missed *));
    ]
  in
  List.iter
    (fun (name, src, expected) ->
      Alcotest.(check int) name expected
        (Mlt.Pipeline.count_gemm_callsites src))
    cases

let test_compile_time_runs () =
  let sources = List.map snd (W.tiny_suite ()) in
  let t_base = Mlt.Pipeline.compile_time `Baseline sources in
  let t_mlt = Mlt.Pipeline.compile_time `With_mlt sources in
  Alcotest.(check bool) "baseline positive" true (t_base > 0.);
  Alcotest.(check bool) "mlt not absurdly slower" true (t_mlt < t_base *. 50.)

(* The entry points mlt-sim calls locate MET errors in the file they
   were given, not in an anonymous "<string>". *)
let test_pipeline_errors_name_the_file () =
  let src = "void f(float A[4]) { A" in
  let machine = Machine.Machine_model.intel_i9 in
  let expect what run =
    match run () with
    | _ -> Alcotest.failf "%s: translated a truncated kernel" what
    | exception Support.Diag.Error (loc, msg) ->
        Alcotest.(check string) what
          "kernels/cut.c:1:23: expected expression, found end of input"
          (Support.Diag.to_string loc msg)
  in
  let file = "kernels/cut.c" in
  let config c = Mlt.Pipeline.Config c in
  expect "prepare_schedule" (fun () ->
      ignore
        (Mlt.Pipeline.prepare_schedule ~file (config Mlt.Pipeline.Mlt_blas) src));
  expect "time_schedule_ext" (fun () ->
      ignore
        (Mlt.Pipeline.time_schedule_ext ~file (config Mlt.Pipeline.Clang_O3)
           machine src));
  expect "time_schedule_ext pluto-best" (fun () ->
      ignore
        (Mlt.Pipeline.time_schedule_ext ~file (config Mlt.Pipeline.Pluto_best)
           machine src));
  expect "check_schedule_semantics" (fun () ->
      ignore
        (Mlt.Pipeline.check_schedule_semantics ~file
           (config Mlt.Pipeline.Mlt_linalg) src))

(* examples/kernels/gemm.c with its i loop run to 25600 over 256-row
   arrays: every entry point fails at the first statement's store,
   C[i][j] = 0.0, in the input file, with the one Affine.Bounds message.
   The input is rejected before any schedule runs, so the tiled
   schedules (pluto-default, pluto-best) fail as fast as clang-O3 and
   nothing is simulated or executed past the arrays. *)
let test_out_of_bounds_kernel_is_located () =
  let src =
    In_channel.with_open_bin
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "../examples/kernels/gemm.c")
      In_channel.input_all
  in
  let bound = "i < 256;" in
  let n = String.length bound in
  let rec at i = if String.sub src i n = bound then i else at (i + 1) in
  let at = at 0 in
  let src =
    String.sub src 0 at ^ "i < 25600;"
    ^ String.sub src (at + n) (String.length src - at - n)
  in
  let file = "kernels/gemm.c" in
  let expect what want run =
    match run () with
    | _ -> Alcotest.failf "%s: ran past the arrays" what
    | exception Support.Diag.Error (loc, msg) ->
        Alcotest.(check string) what want (Support.Diag.to_string loc msg)
  in
  let want =
    "kernels/gemm.c:6:7: bounds: affine.store index reaches 25599, out of \
     bounds [0, 256) at dim 0"
  in
  List.iter
    (fun c ->
      let config = Mlt.Pipeline.Config c in
      let name = Mlt.Pipeline.config_name c in
      expect (name ^ " check_schedule_semantics") want (fun () ->
          Mlt.Pipeline.check_schedule_semantics ~file config src);
      expect (name ^ " time_schedule_ext") want (fun () ->
          Mlt.Pipeline.time_schedule_ext ~file config
            Machine.Machine_model.intel_i9 src))
    Mlt.Pipeline.[ Clang_O3; Pluto_default; Pluto_best ]

(* [check_schedule_semantics] translates once and prepares the schedule
   on a clone of the reference: for every Figure-9 kernel, at the
   Figure-9 and the verify benchmark's sizes, under every config, the
   clone's schedule prints the bytes a fresh translation's does. *)
let test_cloned_schedule_prints_as_translated () =
  let module P = Mlt.Pipeline in
  let sources =
    List.map (fun (k, src, _) -> ("fig9 " ^ k, src)) (W.figure9_suite ())
    @ List.map
        (fun (k, src) -> ("verify " ^ k, src))
        (Test_interp_compile.verify_kernels ())
  in
  let pairs = ref 0 in
  List.iter
    (fun (k, src) ->
      List.iter
        (fun c ->
          let s = P.Config c in
          let fresh = Printer.op_to_string (P.prepare_schedule s src) in
          let reference = Met.Emit_affine.translate src in
          let cloned =
            Printer.op_to_string
              (P.prepare_schedule_module s (Core.clone_op reference))
          in
          incr pairs;
          Alcotest.(check string)
            (Printf.sprintf "%s under %s" k (P.config_name c))
            fresh cloned)
        P.all_configs)
    sources;
  Alcotest.(check int) "kernels x sizes x configs" 192 !pairs

(* Every Figure-9 kernel, translated and under every configuration, is
   structurally equal to its clone and to its printed text parsed back,
   and a function structurally equal to its clone makes the differential
   check run it once. *)
let test_figure9_clones_structurally_equal () =
  let module P = Mlt.Pipeline in
  List.iter
    (fun (k, src, _) ->
      let reference = Met.Emit_affine.translate src in
      List.iter
        (fun (what, m) ->
          let what = k ^ " " ^ what in
          Alcotest.(check bool) (what ^ ": clone") true
            (Core.structural_equal m (Core.clone_op m));
          Alcotest.(check bool) (what ^ ": reparsed") true
            (Core.structural_equal m
               (Parser.parse_module (Printer.op_to_string m))))
        (("translated", reference)
        :: List.map
             (fun c -> (P.config_name c, P.prepare_schedule (P.Config c) src))
             P.all_configs))
    (W.figure9_suite ())

let suite =
  [
    Alcotest.test_case "chain: CLRS example" `Quick test_chain_cormen_example;
    Alcotest.test_case "chain: paper 5.3 example" `Quick
      test_chain_paper_example;
    Alcotest.test_case "chain: Table II parenthesizations" `Quick
      test_chain_table2_orders;
    QCheck_alcotest.to_alcotest prop_chain_optimal_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_chain_optimal_never_worse;
    Alcotest.test_case "fill raising" `Quick test_fill_raising;
    Alcotest.test_case "chain detection" `Quick test_chain_detection;
    Alcotest.test_case "chain via m_Op last-writer (listing 9)" `Quick
      test_chain_m_op_listing9;
    Alcotest.test_case "chain reorder preserves semantics" `Quick
      test_chain_reorder_semantics;
    Alcotest.test_case "chain reorder structure" `Quick
      test_chain_reorder_structure;
    Alcotest.test_case "optimal chain untouched" `Quick
      test_chain_already_optimal_untouched;
    Alcotest.test_case "linalg->blas conversion" `Quick test_to_blas_conversion;
    Alcotest.test_case "linalg->blas semantics" `Quick
      test_to_blas_preserves_semantics;
    Alcotest.test_case "all pipelines preserve semantics" `Quick
      test_pipelines_preserve_semantics;
    Alcotest.test_case "sec 5.1 pipeline" `Quick test_pipeline_sec51_semantics;
    Alcotest.test_case "mlt-blas raises gemm" `Quick
      test_pipeline_mlt_blas_raises_gemm;
    Alcotest.test_case "figure 8 callsite counts" `Quick
      test_fig8_callsite_counts;
    Alcotest.test_case "compile-time measurement runs" `Quick
      test_compile_time_runs;
    Alcotest.test_case "pipeline errors name the input file" `Quick
      test_pipeline_errors_name_the_file;
    Alcotest.test_case "out-of-bounds kernel fails at its access" `Quick
      test_out_of_bounds_kernel_is_located;
    Alcotest.test_case "a cloned reference prepares as a fresh translation"
      `Quick test_cloned_schedule_prints_as_translated;
    Alcotest.test_case "Figure-9 clones are structurally equal" `Quick
      test_figure9_clones_structurally_equal;
  ]
