(* Tests for SCF -> Affine raising (footnote 1: MLT can also lift from
   SCF): lower every kernel all the way to SCF, raise it back, and check
   both structure and semantics; then continue the raising all the way to
   Linalg — the full progressive-raising ladder. *)

open Ir
module T = Transforms
module W = Workloads.Polybench

let count_ops m name =
  let c = ref 0 in
  Core.walk m (fun op -> if String.equal op.Core.o_name name then incr c);
  !c

let test_roundtrip_all_kernels () =
  List.iter
    (fun (name, src) ->
      let reference = Met.Emit_affine.translate src in
      let m = Met.Emit_affine.translate src in
      T.Lower_affine.run m;
      Alcotest.(check int) (name ^ ": fully lowered") 0
        (count_ops m "affine.for");
      let raised = T.Raise_scf.run m in
      if raised = 0 then Alcotest.failf "%s: nothing raised" name;
      Alcotest.(check int) (name ^ ": no scf left") 0 (count_ops m "scf.for");
      Alcotest.(check int) (name ^ ": no memref.load left") 0
        (count_ops m "memref.load");
      Verifier.verify m;
      let fname =
        (List.hd (Met.C_parser.parse_program src)).Met.C_ast.k_name
      in
      if not (Interp.Eval.equivalent reference m fname ~seed:37) then
        Alcotest.failf "%s: scf raising changed semantics" name)
    (W.tiny_suite ())

let test_full_ladder_scf_to_blas () =
  (* SCF -> Affine -> Linalg -> BLAS: the complete progressive raising. *)
  let src = W.mm ~ni:8 ~nj:8 ~nk:8 () in
  let reference = Met.Emit_affine.translate src in
  let m = Met.Emit_affine.translate src in
  T.Lower_affine.run m;
  ignore (T.Raise_scf.run m);
  let raised = Transforms.Tactics.raise_to_linalg m in
  Alcotest.(check int) "gemm found after scf raising" 1 raised;
  ignore (Transforms.To_blas.run m);
  Alcotest.(check int) "sgemm call" 1 (count_ops m "blas.sgemm");
  Verifier.verify m;
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference m "mm" ~seed:41)

let test_access_map_reconstruction () =
  (* A strided, shifted access survives the SCF round trip with the same
     map: A[2*i + 1]. *)
  let src =
    "void f(float A[16], float B[4]) { for (int i = 0; i < 4; ++i) B[i] = \
     A[2*i + 1]; }"
  in
  let m = Met.Emit_affine.translate src in
  T.Lower_affine.run m;
  ignore (T.Raise_scf.run m);
  let maps = ref [] in
  Core.walk m (fun op ->
      if Affine.Affine_ops.is_load op then
        maps := Affine_map.to_string (Affine.Affine_ops.access_map op) :: !maps);
  Alcotest.(check (list string)) "reconstructed map" [ "(d0) -> (2 * d0 + 1)" ]
    !maps

let test_delinearized_reshape_roundtrip () =
  (* floordiv/mod maps (reshape lowering) survive SCF and come back. *)
  let spec = Workloads.Contraction_spec.parse "abc-acd-db" in
  let sizes = [ ('a', 3); ('b', 4); ('c', 5); ('d', 6) ] in
  let src =
    Workloads.Contraction_spec.c_source spec ~sizes ~init:false ~name:"kern" ()
  in
  let reference = Met.Emit_affine.translate src in
  let m = Met.Emit_affine.translate src in
  let tdl = Tdl.Frontend.contraction_tdl ~name:"T" "abc" "acd" "db" in
  ignore (Rewriter.apply_greedily m (Rewriter.freeze (Tdl.Backend.compile_tdl tdl)));
  T.Lower_linalg.run m;
  T.Lower_affine.run m;
  ignore (T.Raise_scf.run m);
  Alcotest.(check int) "no scf left" 0 (count_ops m "scf.for");
  Verifier.verify m;
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference m "kern" ~seed:43)

let test_non_constant_bounds_stay_scf () =
  (* A loop with a data-dependent bound cannot be raised; it must be left
     intact rather than mangled. *)
  let f =
    Core.create_func ~name:"f"
      ~arg_types:[ Typ.memref [ 8 ] Typ.F32 ]
      ~arg_hints:[ "A" ] ()
  in
  let b = Builder.at_end (Core.func_entry f) in
  let lb = Std_dialect.Arith.constant_index b 0 in
  let step = Std_dialect.Arith.constant_index b 1 in
  (* ub = lb + step: not a constant op, so raising must skip the loop. *)
  let ub = Std_dialect.Arith.addi b lb step in
  ignore
    (Std_dialect.Scf.for_ b ~lb ~ub ~step (fun b iv ->
         let c = Std_dialect.Arith.constant_float b 1.0 in
         ignore
           (Std_dialect.Memref_ops.store b c (List.hd (Core.func_args f))
              [ iv ])));
  ignore (Builder.build b "func.return");
  let n = T.Raise_scf.run f in
  Verifier.verify f;
  (* The access inside may still raise, but the loop must stay scf. *)
  Alcotest.(check int) "loop stays scf" 1 (count_ops f "scf.for");
  ignore n

let suite =
  [
    Alcotest.test_case "scf roundtrip all kernels" `Quick
      test_roundtrip_all_kernels;
    Alcotest.test_case "full ladder scf->affine->linalg->blas" `Quick
      test_full_ladder_scf_to_blas;
    Alcotest.test_case "access map reconstruction" `Quick
      test_access_map_reconstruction;
    Alcotest.test_case "delinearized maps roundtrip" `Quick
      test_delinearized_reshape_roundtrip;
    Alcotest.test_case "non-constant bounds stay scf" `Quick
      test_non_constant_bounds_stay_scf;
  ]
