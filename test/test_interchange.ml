(* Tests for the vectorizing loop interchange (Pluto-best's fast-math
   transformation). *)

open Ir
module T = Transforms
module W = Workloads.Polybench

let translate = Met.Emit_affine.translate

let innermost_of f =
  let loops =
    Affine.Loops.perfect_nest (List.hd (Affine.Loops.top_level_loops f))
  in
  List.nth loops (List.length loops - 1)

let test_gemm_rotation () =
  let m = translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let f = Option.get (Core.find_func m "mm") in
  Alcotest.(check bool) "k-innermost not vectorizable" false
    (Machine.Trace.is_vectorizable (innermost_of f));
  let n = T.Interchange.vectorize_func f in
  Alcotest.(check int) "one nest rotated" 1 n;
  Verifier.verify m;
  Alcotest.(check bool) "now vectorizable" true
    (Machine.Trace.is_vectorizable (innermost_of f))

let test_rotation_preserves_semantics () =
  (* Reductions reassociate: allow the interpreter's default epsilon. *)
  let src = W.mm ~ni:9 ~nj:7 ~nk:11 () in
  let reference = translate src in
  let m = translate src in
  ignore (T.Interchange.vectorize_func m);
  Alcotest.(check bool) "equivalent modulo reassociation" true
    (Interp.Eval.equivalent reference m "mm" ~seed:19)

let test_already_vectorizable_untouched () =
  (* y[j] += A[i][j] * x[i] with j innermost: store varies with j. *)
  let src =
    "void f(float A[6][8], float x[6], float y[8]) { for (int i = 0; i < \
     6; ++i) for (int j = 0; j < 8; ++j) y[j] += A[i][j] * x[i]; }"
  in
  let m = translate src in
  Alcotest.(check int) "no rotation" 0
    (T.Interchange.vectorize_func (Option.get (Core.find_func m "f")))

(* The dependence test's verdict on the innermost body of [f]'s first
   nest for moving its loop [at] innermost. *)
let rotation f ~at =
  let inner = innermost_of f in
  let ivs = Affine.Dependence.ivs_around inner @ [ Affine.Affine_ops.for_iv inner ] in
  Affine.Dependence.(
    violation ~ok:(rotatable ~at) (ivs, Affine.Loops.body_ops inner))

let legal = Option.is_none

let test_non_reduction_body_untouched () =
  (* i is the unit-stride loop, but the load reads the element the store
     wrote one j earlier and one i later: the dependence (i, j) = (-1, 1)
     read backward is (1, -1), which turns negative once i is innermost.
     The test must refuse to permute. *)
  let src =
    "void f(float A[9][9]) { for (int i = 0; i < 8; ++i) for (int j = 1; j \
     < 9; ++j) A[j][i] = A[j - 1][i + 1] + 1.0; }"
  in
  let m = translate src in
  let f = Option.get (Core.find_func m "f") in
  Alcotest.(check bool) "i not rotatable" false (legal (rotation f ~at:0));
  Alcotest.(check int) "no rotation" 0 (T.Interchange.vectorize_func f)

let test_permutable_body_recognizes_contraction () =
  (* gemm's accumulator depends on itself only along k; a sum over two
     loops into one cell reorders under reassociation. *)
  let m = translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let f = Option.get (Core.find_func m "mm") in
  Alcotest.(check bool) "gemm: j rotatable" true (legal (rotation f ~at:1));
  let m =
    translate
      "void f(float A[4][4], float s[1]) { for (int i = 0; i < 4; ++i) for \
       (int j = 0; j < 4; ++j) s[0] += A[i][j]; }"
  in
  let f = Option.get (Core.find_func m "f") in
  Alcotest.(check bool) "sum: i rotatable under reassociation" true
    (legal (rotation f ~at:0))

let test_all_kernels_survive_interchange () =
  List.iter
    (fun (name, src) ->
      let reference = translate src in
      let m = translate src in
      Core.walk m (fun op ->
          if Core.is_func op then ignore (T.Interchange.vectorize_func op));
      Verifier.verify m;
      let fname =
        (List.hd (Met.C_parser.parse_program src)).Met.C_ast.k_name
      in
      if not (Interp.Eval.equivalent reference m fname ~seed:29) then
        Alcotest.failf "%s: interchange changed semantics" name)
    (W.tiny_suite ())

let test_fast_math_gates_reduction_vectorization () =
  (* tmp[i] += A[i][j] * x[j], j innermost: reduction. *)
  let src =
    "void f(float A[6][8], float x[8], float tmp[6]) { for (int i = 0; i < \
     6; ++i) for (int j = 0; j < 8; ++j) tmp[i] += A[i][j] * x[j]; }"
  in
  let m = translate src in
  let f = Option.get (Core.find_func m "f") in
  let inner = innermost_of f in
  Alcotest.(check bool) "scalar without fast-math" false
    (Machine.Trace.is_vectorizable inner);
  Alcotest.(check bool) "vector with fast-math" true
    (Machine.Trace.is_vectorizable ~fast_math:true inner)

let suite =
  [
    Alcotest.test_case "gemm rotation" `Quick test_gemm_rotation;
    Alcotest.test_case "rotation preserves semantics" `Quick
      test_rotation_preserves_semantics;
    Alcotest.test_case "already-vectorizable untouched" `Quick
      test_already_vectorizable_untouched;
    Alcotest.test_case "non-reduction body untouched" `Quick
      test_non_reduction_body_untouched;
    Alcotest.test_case "permutable body recognition" `Quick
      test_permutable_body_recognizes_contraction;
    Alcotest.test_case "all kernels survive interchange" `Quick
      test_all_kernels_survive_interchange;
    Alcotest.test_case "fast-math gates reduction vectorization" `Quick
      test_fast_math_gates_reduction_vectorization;
  ]
