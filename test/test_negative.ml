(* Negative controls: the Polybench kernels the paper excluded from
   Figure 9 because they do not map onto the available Linalg operations.
   The tactics must leave them alone (or raise only the genuinely
   matching sub-computations), and whatever happens must preserve
   semantics. *)

open Ir
module W = Workloads.Polybench

let count_ops m name =
  let c = ref 0 in
  Core.walk m (fun op -> if String.equal op.Core.o_name name then incr c);
  !c

let raise_all src =
  let m = Met.Emit_affine.translate src in
  let n = Transforms.Tactics.raise_to_linalg m in
  Verifier.verify m;
  (m, n)

let test_syrk_not_raised () =
  (* C += A * A^T uses the same array twice: the array-distinctness
     constraint of the access matchers must reject every tactic. *)
  let m, n = raise_all (W.syrk_like ~n:8 ~k:8 ()) in
  Alcotest.(check int) "nothing raised" 0 n;
  Alcotest.(check int) "loops intact" 3 (count_ops m "affine.for")

let test_trmm_not_raised () =
  (* In-place B += A * B aliases input and output. *)
  let m, n = raise_all (W.trmm_like ~n:8 ()) in
  Alcotest.(check int) "nothing raised" 0 n;
  Alcotest.(check int) "loops intact" 3 (count_ops m "affine.for")

let test_doitgen_partial () =
  (* The inner contraction is a legitimate matvec-transposed shape after
     distribution; the writeback copy must stay at the loop level. The
     result must still compute doitgen. *)
  let src = W.doitgen ~r:4 ~q:4 ~p:4 () in
  let reference = Met.Emit_affine.translate src in
  let m, _ = raise_all src in
  Alcotest.(check bool) "no matmul invented" true
    (count_ops m "linalg.matmul" = 0);
  Alcotest.(check bool) "equivalent regardless" true
    (Interp.Eval.equivalent reference m "doitgen" ~seed:127)

let test_negative_controls_semantics () =
  (* Whatever the tactics do or do not do, semantics hold. *)
  List.iter
    (fun (name, src) ->
      let reference = Met.Emit_affine.translate src in
      let m, _ = raise_all src in
      let fname =
        (List.hd (Met.C_parser.parse_program src)).Met.C_ast.k_name
      in
      if not (Interp.Eval.equivalent reference m fname ~seed:131) then
        Alcotest.failf "%s: raising changed semantics" name)
    [
      ("syrk", W.syrk_like ~n:6 ~k:6 ());
      ("trmm", W.trmm_like ~n:6 ());
      ("doitgen", W.doitgen ~r:3 ~q:3 ~p:3 ());
    ]

let suite =
  [
    Alcotest.test_case "syrk not raised (same input twice)" `Quick
      test_syrk_not_raised;
    Alcotest.test_case "trmm not raised (in-place aliasing)" `Quick
      test_trmm_not_raised;
    Alcotest.test_case "doitgen: no spurious matmul" `Quick
      test_doitgen_partial;
    Alcotest.test_case "negative controls keep semantics" `Quick
      test_negative_controls_semantics;
  ]
