(* Tests for loop unrolling. *)

open Ir
module T = Transforms
module W = Workloads.Polybench

let count_ops m name =
  let c = ref 0 in
  Core.walk m (fun op -> if String.equal op.Core.o_name name then incr c);
  !c

let test_structure_divisible () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let n = T.Loop_unroll.unroll_innermost m ~factor:4 in
  Verifier.verify m;
  Alcotest.(check int) "one innermost loop unrolled" 1 n;
  (* Divisible: no remainder loop; 4 MACs in the body. *)
  Alcotest.(check int) "still three loops" 3 (count_ops m "affine.for");
  Alcotest.(check int) "four multiplications" 4 (count_ops m "arith.mulf")

let test_structure_remainder () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:10 ()) in
  ignore (T.Loop_unroll.unroll_innermost m ~factor:4);
  Verifier.verify m;
  (* 10 = 2*4 + 2: a remainder loop appears. *)
  Alcotest.(check int) "four loops" 4 (count_ops m "affine.for")

let prop_unroll_preserves_semantics =
  QCheck.Test.make ~name:"unrolling preserves semantics" ~count:40
    QCheck.(pair (int_range 2 7) (triple (int_range 2 11) (int_range 2 11) (int_range 2 11)))
    (fun (factor, (ni, nj, nk)) ->
      let src = W.gemm ~ni ~nj ~nk () in
      let reference = Met.Emit_affine.translate src in
      let m = Met.Emit_affine.translate src in
      ignore (T.Loop_unroll.unroll_innermost m ~factor);
      Verifier.verify m;
      Interp.Eval.equivalent reference m "gemm" ~seed:137)

let test_unroll_then_raise_fails_gracefully () =
  (* Unrolled bodies no longer match the single-statement contraction
     pattern — the tactic must simply not fire (no crash, no bad raise). *)
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  ignore (T.Loop_unroll.unroll_innermost m ~factor:2);
  Alcotest.(check int) "no raise on unrolled body" 0
    (Transforms.Tactics.raise_to_linalg m)

let test_no_op_cases () =
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:2 ()) in
  (* trip 2 < factor 4 on the innermost loop *)
  Alcotest.(check int) "too short" 0 (T.Loop_unroll.unroll_innermost m ~factor:4);
  Alcotest.(check int) "factor 1 refused" 0
    (T.Loop_unroll.unroll_innermost m ~factor:1)

let suite =
  [
    Alcotest.test_case "structure (divisible)" `Quick test_structure_divisible;
    Alcotest.test_case "structure (remainder loop)" `Quick
      test_structure_remainder;
    QCheck_alcotest.to_alcotest prop_unroll_preserves_semantics;
    Alcotest.test_case "unrolled bodies are not raised" `Quick
      test_unroll_then_raise_fails_gracefully;
    Alcotest.test_case "no-op cases" `Quick test_no_op_cases;
  ]
