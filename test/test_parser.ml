(* Round-trip tests for the textual IR printer/parser pair. *)

open Ir
module W = Workloads.Polybench

let roundtrip_once name (m : Core.op) =
  let printed = Printer.op_to_string m in
  let reparsed =
    try Parser.parse_module printed
    with Support.Diag.Error (loc, msg) ->
      Alcotest.failf "%s: parse failed: %s\nIR was:\n%s" name
        (Support.Diag.to_string loc msg)
        printed
  in
  let printed2 = Printer.op_to_string reparsed in
  if printed <> printed2 then
    Alcotest.failf "%s: round-trip mismatch.\nFirst:\n%s\nSecond:\n%s" name
      printed printed2;
  reparsed

let test_roundtrip_all_workloads () =
  List.iter
    (fun (name, src) ->
      ignore (roundtrip_once name (Met.Emit_affine.translate src)))
    (W.tiny_suite ())

let test_roundtrip_preserves_semantics () =
  List.iter
    (fun (name, src) ->
      let m = Met.Emit_affine.translate src in
      let m2 = roundtrip_once name m in
      let fname =
        (List.hd (Met.C_parser.parse_program src)).Met.C_ast.k_name
      in
      if not (Interp.Eval.equivalent m m2 fname ~seed:21) then
        Alcotest.failf "%s: reparsed IR computes differently" name)
    (W.tiny_suite ())

let test_roundtrip_raised_linalg () =
  (* TTGT-raised IR: linalg ops, fills, allocs. *)
  let spec = Workloads.Contraction_spec.parse "abc-acd-db" in
  let sizes = [ ('a', 4); ('b', 5); ('c', 3); ('d', 6) ] in
  let src =
    Workloads.Contraction_spec.c_source spec ~sizes ~init:true ~name:"kern" ()
  in
  let m = Met.Emit_affine.translate src in
  ignore
    (Transforms.Tactics.raise_to_linalg (Option.get (Core.find_func m "kern")));
  ignore (roundtrip_once "ttgt" m)

let test_roundtrip_blas_and_affine_matmul () =
  let m =
    Mlt.Pipeline.prepare_schedule (Mlt.Pipeline.Config Mlt.Pipeline.Mlt_blas)
      (W.gemm ~ni:8 ~nj:8 ~nk:8 ())
  in
  ignore (roundtrip_once "blas" m);
  let m2 =
    Mlt.Pipeline.prepare_schedule
      (Mlt.Pipeline.Config Mlt.Pipeline.Mlt_affine_blis)
      (W.mm ~ni:8 ~nj:8 ~nk:8 ())
  in
  ignore (roundtrip_once "affine.matmul" m2)

let test_roundtrip_tiled_min_bounds () =
  (* Tiling produces min() upper bounds and non-zero lower bounds. *)
  let m = Met.Emit_affine.translate (W.mm ~ni:10 ~nj:10 ~nk:10 ()) in
  Transforms.Loop_tile.tile_all m ~size:4;
  let m2 = roundtrip_once "tiled" m in
  Alcotest.(check bool) "still equivalent" true
    (Interp.Eval.equivalent m m2 "mm" ~seed:2)

let test_roundtrip_scf_level () =
  let m = Met.Emit_affine.translate (W.mm ~ni:6 ~nj:6 ~nk:6 ()) in
  Transforms.Lower_affine.run m;
  let m2 = roundtrip_once "scf" m in
  Alcotest.(check bool) "still equivalent" true
    (Interp.Eval.equivalent m m2 "mm" ~seed:8)

let test_roundtrip_contract_generic () =
  (* linalg.contract carries affine_map<...> list attributes. *)
  let module M = Affine_map in
  let f =
    Core.create_func ~name:"c"
      ~arg_types:
        [
          Typ.memref [ 4; 5 ] Typ.F32;
          Typ.memref [ 5; 3 ] Typ.F32;
          Typ.memref [ 4; 3 ] Typ.F32;
        ]
      ~arg_hints:[ "A"; "B"; "C" ] ()
  in
  let b = Builder.at_end (Core.func_entry f) in
  let maps =
    [
      M.minor_identity ~n_dims:3 ~results:[ 0; 2 ];
      M.minor_identity ~n_dims:3 ~results:[ 2; 1 ];
      M.minor_identity ~n_dims:3 ~results:[ 0; 1 ];
    ]
  in
  let[@warning "-8"] [ a; bv; c ] = Core.func_args f in
  ignore (Linalg.Linalg_ops.contract b ~maps a bv c);
  ignore (Builder.build b "func.return");
  let m = Core.create_module () in
  Core.append_op (Core.module_block m) f;
  ignore (roundtrip_once "contract" m)

let test_parse_errors () =
  let expect_fail src =
    match Support.Diag.wrap (fun () -> Parser.parse_module src) with
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
    | Error _ -> ()
  in
  expect_fail "builtin.module {";
  expect_fail "builtin.module { func.func gemm() { } }";
  expect_fail
    "builtin.module { func.func @f() { %0 = arith.addf %x, %y : f32 } }";
  expect_fail
    "builtin.module { func.func @f(%A: memref<2xf32>) { affine.store %A, \
     %A[0] : memref<2xf32> } }"

let test_parse_hand_written () =
  (* Hand-written IR, not printer output: extra whitespace, comments. *)
  let src =
    {|builtin.module {
  // a tiny zeroing function
  func.func @zero(%A: memref<3x3xf32>) {
    affine.for %i = 0 to 3 {
      affine.for %j = 0 to 3 {
        %c = arith.constant 0.0 : f32
        affine.store %c, %A[%i, %j] : memref<3x3xf32>
      }
    }
    func.return
  }
}|}
  in
  let m = Parser.parse_module src in
  let f = Option.get (Core.find_func m "zero") in
  let buf = Interp.Buffer.create [ 3; 3 ] in
  Interp.Buffer.randomize ~seed:1 buf;
  Interp.Eval.run_func f [ buf ];
  Alcotest.(check (float 0.)) "zeroed" 0. buf.Interp.Buffer.data.(4)

let suite =
  [
    Alcotest.test_case "roundtrip all workloads" `Quick
      test_roundtrip_all_workloads;
    Alcotest.test_case "roundtrip preserves semantics" `Quick
      test_roundtrip_preserves_semantics;
    Alcotest.test_case "roundtrip raised linalg" `Quick
      test_roundtrip_raised_linalg;
    Alcotest.test_case "roundtrip blas and affine.matmul" `Quick
      test_roundtrip_blas_and_affine_matmul;
    Alcotest.test_case "roundtrip tiled min-bounds" `Quick
      test_roundtrip_tiled_min_bounds;
    Alcotest.test_case "roundtrip scf level" `Quick test_roundtrip_scf_level;
    Alcotest.test_case "roundtrip linalg.contract maps" `Quick
      test_roundtrip_contract_generic;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse hand-written IR" `Quick test_parse_hand_written;
  ]
