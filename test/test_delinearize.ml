(* Tests for optimistic delinearization — the pass that recovers the
   Darknet callsite of Figure 8. *)

open Ir
module T = Transforms
module W = Workloads.Polybench

let count_ops m name =
  let c = ref 0 in
  Core.walk m (fun op -> if String.equal op.Core.o_name name then incr c);
  !c

let darknet_func n =
  let m = Met.Emit_affine.translate (W.darknet_gemm ~m:n ~n ~k:n ()) in
  (m, Option.get (Core.find_func m "darknet_gemm"))

let test_darknet_delinearizes () =
  let n = 8 in
  let m, f = darknet_func n in
  let rewritten = T.Delinearize.run f in
  Alcotest.(check int) "three buffers retyped" 3 rewritten;
  Verifier.verify m;
  (* Arguments are now 2-d. *)
  List.iter
    (fun (v : Core.value) ->
      Alcotest.(check int) "rank 2" 2 (Typ.memref_rank v.Core.v_typ))
    (Core.func_args f)

let test_darknet_raises_after_delinearization () =
  (* The Figure-8 fix: after delinearization, the ordinary 2-d GEMM tactic
     matches the Darknet kernel. *)
  let n = 8 in
  let _, f = darknet_func n in
  let before = Rewriter.apply_greedily f (Rewriter.freeze (Tdl.Backend.compile_tdl Tdl.Frontend.gemm_tdl)) in
  Alcotest.(check int) "missed before" 0 before;
  ignore (T.Delinearize.run f);
  let after = Rewriter.apply_greedily f (Rewriter.freeze (Tdl.Backend.compile_tdl Tdl.Frontend.gemm_tdl)) in
  Alcotest.(check int) "detected after" 1 after;
  Alcotest.(check int) "matmul op" 1 (count_ops f "linalg.matmul")

let test_delinearization_preserves_semantics () =
  let n = 6 in
  let m1, _ = darknet_func n in
  let m2, f2 = darknet_func n in
  ignore (T.Delinearize.run f2);
  ignore (Transforms.Tactics.raise_to_linalg f2);
  (* Same row-major data, different ranks: compare flattened buffers. *)
  let mk1 seed = let b = Interp.Buffer.create [ n * n ] in Interp.Buffer.randomize ~seed b; b in
  let mk2 seed = let b = Interp.Buffer.create [ n; n ] in Interp.Buffer.randomize ~seed b; b in
  let a1 = mk1 1 and b1 = mk1 2 and c1 = mk1 3 in
  let a2 = mk2 1 and b2 = mk2 2 and c2 = mk2 3 in
  Interp.Eval.run m1 "darknet_gemm" [ a1; b1; c1 ];
  Interp.Eval.run m2 "darknet_gemm" [ a2; b2; c2 ];
  Alcotest.(check (float 1e-4)) "same data" 0.
    (Interp.Buffer.max_abs_diff c1 { c1 with Interp.Buffer.data = c2.Interp.Buffer.data })

let test_guarded_against_overflowing_subscripts () =
  (* B[8*i + j] with j in [0, 12): the low part is NOT provably < 8, so
     the buffer must not be delinearized with stride 8. *)
  let src =
    "void f(float B[96]) { for (int i = 0; i < 8; ++i) for (int j = 0; j < \
     12; ++j) B[8*i + j] = 1.0; }"
  in
  let m = Met.Emit_affine.translate src in
  let f = Option.get (Core.find_func m "f") in
  Alcotest.(check int) "not rewritten" 0 (T.Delinearize.run f)

let test_mixed_rank_untouched () =
  (* 2-d buffers are left alone; only the rank-1 candidate is rewritten. *)
  let src =
    "void f(float A[4][4], float B[16]) { for (int i = 0; i < 4; ++i) for \
     (int j = 0; j < 4; ++j) B[4*i + j] = A[i][j]; }"
  in
  let m = Met.Emit_affine.translate src in
  let f = Option.get (Core.find_func m "f") in
  Alcotest.(check int) "one buffer" 1 (T.Delinearize.run f);
  Verifier.verify m

let test_non_affine_or_unknown_extent_guarded () =
  (* Accesses whose subscripts mix unknown strides must not be split. *)
  let src =
    "void f(float B[64]) { for (int i = 0; i < 8; ++i) B[9*i] = 1.0; }"
  in
  (* stride 9 does not divide 64: reject. *)
  let m = Met.Emit_affine.translate src in
  let f = Option.get (Core.find_func m "f") in
  Alcotest.(check int) "not rewritten" 0 (T.Delinearize.run f)

let suite =
  [
    Alcotest.test_case "darknet buffers delinearize" `Quick
      test_darknet_delinearizes;
    Alcotest.test_case "darknet raises after delinearization (fig 8)" `Quick
      test_darknet_raises_after_delinearization;
    Alcotest.test_case "delinearization preserves semantics" `Quick
      test_delinearization_preserves_semantics;
    Alcotest.test_case "overflowing subscripts guarded" `Quick
      test_guarded_against_overflowing_subscripts;
    Alcotest.test_case "mixed ranks: only candidates rewritten" `Quick
      test_mixed_rank_untouched;
    Alcotest.test_case "non-dividing strides guarded" `Quick
      test_non_affine_or_unknown_extent_guarded;
  ]
