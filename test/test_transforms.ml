(* Tests for lowering, tiling, fusion, Pluto, canonicalization and DCE.
   Semantic preservation is checked with the interpreter throughout. *)

open Ir
module W = Workloads.Polybench
module T = Transforms

let translate = Met.Emit_affine.translate

let func_name_of src =
  (List.hd (Met.C_parser.parse_program src)).Met.C_ast.k_name

let equivalent_after name src transform =
  let name = if Core.find_func (translate src) name = None then func_name_of src else name in
  let reference = translate src in
  let transformed = translate src in
  transform transformed;
  Verifier.verify transformed;
  if not (Interp.Eval.equivalent reference transformed name ~seed:31) then
    Alcotest.failf "%s: transformation changed semantics" name

let count_ops m name =
  let c = ref 0 in
  Core.walk m (fun op -> if String.equal op.Core.o_name name then incr c);
  !c

(* --- lowering linalg -> affine --------------------------------------- *)

let raise_to_linalg m =
  let pats =
    Tdl.Backend.compile_tdl Tdl.Frontend.gemm_tdl
    @ Tdl.Backend.compile_tdl
        "def MV { pattern y(i) += A(i,j) * x(j) }\n\
         def MVT { pattern y(j) += A(i,j) * x(i) }"
  in
  ignore (Rewriter.apply_greedily m (Rewriter.freeze pats))

let test_lower_linalg_roundtrip () =
  (* raise mm to linalg.matmul, lower back to loops, compare. *)
  let src = W.mm ~ni:6 ~nj:7 ~nk:8 () in
  equivalent_after "mm" src (fun m ->
      raise_to_linalg m;
      Alcotest.(check int) "raised" 1 (count_ops m "linalg.matmul");
      T.Lower_linalg.run m;
      Alcotest.(check int) "no linalg left" 0 (count_ops m "linalg.matmul");
      Alcotest.(check int) "loops back" 3 (count_ops m "affine.for"))

let test_lower_linalg_ttgt_roundtrip () =
  (* Full TTGT: transpose/reshape/matmul all lowered to loops. *)
  let spec = Workloads.Contraction_spec.parse "abc-acd-db" in
  let sizes = [ ('a', 3); ('b', 4); ('c', 5); ('d', 6) ] in
  let src =
    Workloads.Contraction_spec.c_source spec ~sizes ~init:false ~name:"kern" ()
  in
  equivalent_after "kern" src (fun m ->
      let tdl = Tdl.Frontend.contraction_tdl ~name:"T" "abc" "acd" "db" in
      ignore (Rewriter.apply_greedily m (Rewriter.freeze (Tdl.Backend.compile_tdl tdl)));
      T.Lower_linalg.run m;
      Alcotest.(check int) "no reshape left" 0 (count_ops m "linalg.reshape"))

let test_lower_matvec_both () =
  List.iter
    (fun (name, src) -> equivalent_after name src raise_to_linalg)
    [ ("atax", W.atax ~m:8 ~n:8 ()); ("mvt", W.mvt ~n:8 ()) ];
  (* and with the extra lowering back to loops *)
  equivalent_after "atax" (W.atax ~m:8 ~n:8 ()) (fun m ->
      raise_to_linalg m;
      T.Lower_linalg.run m)

let test_lower_named_as_contract () =
  (* A named op and a linalg.contract over its indexing maps lower to the
     same loops. *)
  let lowered shapes build =
    let f =
      Core.create_func ~name:"k"
        ~arg_types:(List.map (fun s -> Typ.memref s Typ.F32) shapes)
        ~arg_hints:[ "A"; "B"; "C" ] ()
    in
    let b = Builder.at_end (Core.func_entry f) in
    let[@warning "-8"] [ x; y; z ] = Core.func_args f in
    let maps = Structured.maps (build b x y z) in
    ignore (Builder.build b "func.return");
    let m = Core.create_module () in
    Core.append_op (Core.module_block m) f;
    Verifier.verify m;
    T.Lower_linalg.run m;
    (Option.get maps, Printer.op_to_string m)
  in
  let module L = Linalg.Linalg_ops in
  List.iter
    (fun (name, shapes, named) ->
      let maps, expected = lowered shapes named in
      let _, got = lowered shapes (fun b x y z -> L.contract b ~maps x y z) in
      Alcotest.(check bool) (name ^ ": lowered to loops") true
        (Astring_contains.contains expected "affine.for");
      Alcotest.(check string) name expected got)
    [
      ("matmul", [ [ 4; 5 ]; [ 5; 3 ]; [ 4; 3 ] ], L.matmul);
      ("matvec", [ [ 4; 5 ]; [ 5 ]; [ 4 ] ], L.matvec);
      ( "matvec^T",
        [ [ 4; 5 ]; [ 4 ]; [ 5 ] ],
        fun b x y z ->
          let op = L.matvec b x y z in
          Core.set_attr op "transpose" (Attr.Bool true);
          op );
      ( "conv2d_nchw",
        [ [ 1; 2; 6; 6 ]; [ 3; 2; 3; 3 ]; [ 1; 3; 4; 4 ] ],
        L.conv2d_nchw );
    ]

(* --- tiling ------------------------------------------------------------ *)

let test_tile_divisible () =
  equivalent_after "mm" (W.mm ~ni:8 ~nj:8 ~nk:8 ()) (fun m ->
      T.Loop_tile.tile_all m ~size:4;
      (* 3 tile loops + 3 point loops *)
      Alcotest.(check int) "six loops" 6 (count_ops m "affine.for"))

let test_tile_non_divisible () =
  (* 7 is not divisible by 4: min-bounds must keep semantics. *)
  equivalent_after "mm" (W.mm ~ni:7 ~nj:6 ~nk:5 ()) (fun m ->
      T.Loop_tile.tile_all m ~size:4)

let test_tile_larger_than_trip () =
  equivalent_after "mm" (W.mm ~ni:6 ~nj:6 ~nk:6 ()) (fun m ->
      T.Loop_tile.tile_all m ~size:64;
      (* size >= trip count: loops left untiled *)
      Alcotest.(check int) "three loops" 3 (count_ops m "affine.for"))

let test_tile_imperfect_nest_kernels () =
  List.iter
    (fun (name, src) ->
      equivalent_after name src (fun m -> T.Loop_tile.tile_all m ~size:4))
    (W.tiny_suite ())

(* --- fusion ------------------------------------------------------------ *)

let test_fuse_identical_bounds () =
  (* Two independent init loops fuse under maxfuse. *)
  let src =
    "void f(float a[8], float b[8]) { for (int i = 0; i < 8; ++i) a[i] = \
     1.0; for (int i = 0; i < 8; ++i) b[i] = 2.0; }"
  in
  equivalent_after "f" src (fun m ->
      let n = T.Loop_fuse.run T.Loop_fuse.Max_fuse m in
      Alcotest.(check int) "one pair fused" 1 n;
      Alcotest.(check int) "single loop" 1 (count_ops m "affine.for"))

let test_smartfuse_needs_shared_data () =
  let src =
    "void f(float a[8], float b[8]) { for (int i = 0; i < 8; ++i) a[i] = \
     1.0; for (int i = 0; i < 8; ++i) b[i] = 2.0; }"
  in
  let m = translate src in
  Alcotest.(check int) "smartfuse skips disjoint loops" 0
    (T.Loop_fuse.run T.Loop_fuse.Smart_fuse m);
  let src2 =
    "void f(float a[8], float b[8]) { for (int i = 0; i < 8; ++i) a[i] = \
     1.0; for (int i = 0; i < 8; ++i) b[i] = a[i] + 1.0; }"
  in
  let m2 = translate src2 in
  Alcotest.(check int) "smartfuse fuses shared-data loops" 1
    (T.Loop_fuse.run T.Loop_fuse.Smart_fuse m2)

let test_fuse_blocked_by_dependence () =
  (* Different subscripts on a shared written array: no fusion. *)
  let src =
    "void f(float a[9]) { for (int i = 0; i < 8; ++i) a[i] = 1.0; for (int \
     i = 0; i < 8; ++i) a[i + 1] = a[i] + 1.0; }"
  in
  let m = translate src in
  Alcotest.(check int) "kept apart" 0 (T.Loop_fuse.run T.Loop_fuse.Max_fuse m)

let test_fuse_preserves_semantics_all () =
  List.iter
    (fun (name, src) ->
      equivalent_after name src (fun m ->
          ignore (T.Loop_fuse.run T.Loop_fuse.Max_fuse m));
      equivalent_after name src (fun m ->
          ignore (T.Loop_fuse.run T.Loop_fuse.Smart_fuse m)))
    (W.tiny_suite ())

(* --- pluto -------------------------------------------------------------- *)

let test_pluto_configs_preserve_semantics () =
  let configs = T.Pluto.sweep_configs ~max_trip:16 in
  Alcotest.(check bool) "several configs" true (List.length configs >= 6);
  List.iter
    (fun config ->
      equivalent_after "gemm"
        (W.gemm ~ni:10 ~nj:10 ~nk:10 ())
        (fun m -> T.Pluto.apply config m))
    configs

(* --- canonicalize ------------------------------------------------------- *)

let test_canonicalize_alpha_one () =
  (* C += 1.0 * A * B canonicalizes so the GEMM tactic fires. *)
  let src =
    "void f(float A[6][6], float B[6][6], float C[6][6]) { for (int i = 0; \
     i < 6; ++i) for (int j = 0; j < 6; ++j) for (int k = 0; k < 6; ++k) \
     C[i][j] += 1.0 * A[i][k] * B[k][j]; }"
  in
  let m = translate src in
  let pats = Rewriter.freeze (Tdl.Backend.compile_tdl Tdl.Frontend.gemm_tdl) in
  Alcotest.(check int) "no match before canonicalization" 0
    (Rewriter.apply_greedily m pats);
  ignore (T.Canonicalize.run m);
  Verifier.verify m;
  Alcotest.(check int) "matches after" 1 (Rewriter.apply_greedily m pats)

let test_canonicalize_folds_constants () =
  let f = Core.create_func ~name:"t" ~arg_types:[ Typ.memref [ 1 ] Typ.F32 ] () in
  let b = Builder.at_end (Core.func_entry f) in
  let x = Std_dialect.Arith.constant_float b 2. in
  let y = Std_dialect.Arith.constant_float b 3. in
  let s = Std_dialect.Arith.addf b x y in
  let buf = List.hd (Core.func_args f) in
  ignore (Affine.Affine_ops.store_simple b s buf
            [ Std_dialect.Arith.constant_index b 0 ]);
  ignore (Builder.build b "func.return");
  ignore (T.Canonicalize.run f);
  (* The addf is gone; a single folded 5.0 constant feeds the store. *)
  Alcotest.(check int) "no addf" 0 (count_ops f "arith.addf");
  let stores = ref [] in
  Core.walk f (fun op ->
      if Affine.Affine_ops.is_store op then stores := op :: !stores);
  match !stores with
  | [ st ] -> (
      match Core.defining_op (Affine.Affine_ops.stored_value st) with
      | Some c ->
          Alcotest.(check (option (float 0.))) "folded" (Some 5.)
            (Std_dialect.Arith.constant_float_value c)
      | None -> Alcotest.fail "stored value has no defining op")
  | _ -> Alcotest.fail "expected one store"

let stored_constant f =
  let stores = ref [] in
  Core.walk f (fun op ->
      if Affine.Affine_ops.is_store op then stores := op :: !stores);
  match !stores with
  | [ st ] -> (
      match Core.defining_op (Affine.Affine_ops.stored_value st) with
      | Some c -> Std_dialect.Arith.constant_float_value c
      | None -> Alcotest.fail "stored value has no defining op")
  | _ -> Alcotest.fail "expected exactly one store"

let test_canonicalize_mul_zero_gated () =
  (* x *. 0.0 with a runtime x must NOT fold by default: x could be NaN,
     +/-inf or -0.0, where the result is not +0.0. *)
  let build () =
    let f =
      Core.create_func ~name:"t" ~arg_types:[ Typ.memref [ 1 ] Typ.F32 ] ()
    in
    let b = Builder.at_end (Core.func_entry f) in
    let buf = List.hd (Core.func_args f) in
    let i0 = Std_dialect.Arith.constant_index b 0 in
    let x = Affine.Affine_ops.load_simple b buf [ i0 ] in
    let z = Std_dialect.Arith.constant_float b 0.0 in
    let p = Std_dialect.Arith.mulf b x z in
    ignore (Affine.Affine_ops.store_simple b p buf [ i0 ]);
    ignore (Builder.build b "func.return");
    f
  in
  let f = build () in
  ignore (T.Canonicalize.run f);
  Verifier.verify f;
  Alcotest.(check int) "mulf kept without fast-math" 1
    (count_ops f "arith.mulf");
  let g = build () in
  ignore (T.Canonicalize.run ~fast_math:true g);
  Verifier.verify g;
  Alcotest.(check int) "mulf folded under fast-math" 0
    (count_ops g "arith.mulf")

let test_canonicalize_nan_inf_const_folds () =
  (* Constant*constant folding is exact, so it stays on without fast-math
     and must propagate NaN: nan*0 = nan, inf*0 = nan — never +0.0. *)
  let check name lhs rhs =
    let f =
      Core.create_func ~name:"t" ~arg_types:[ Typ.memref [ 1 ] Typ.F32 ] ()
    in
    let b = Builder.at_end (Core.func_entry f) in
    let buf = List.hd (Core.func_args f) in
    let x = Std_dialect.Arith.constant_float b lhs in
    let y = Std_dialect.Arith.constant_float b rhs in
    let p = Std_dialect.Arith.mulf b x y in
    ignore
      (Affine.Affine_ops.store_simple b p buf
         [ Std_dialect.Arith.constant_index b 0 ]);
    ignore (Builder.build b "func.return");
    ignore (T.Canonicalize.run f);
    Alcotest.(check int) (name ^ ": mulf folded") 0 (count_ops f "arith.mulf");
    match stored_constant f with
    | Some v ->
        Alcotest.(check bool) (name ^ ": folds to NaN") true (Float.is_nan v)
    | None -> Alcotest.fail (name ^ ": expected a folded constant")
  in
  check "nan*0" Float.nan 0.0;
  check "inf*0" Float.infinity 0.0;
  check "0*neg-inf" 0.0 Float.neg_infinity

(* --- dce ----------------------------------------------------------------- *)

let test_dce_removes_dead_buffer () =
  let src =
    "void f(float a[8]) { float t[8]; for (int i = 0; i < 8; ++i) t[i] = \
     1.0; for (int i = 0; i < 8; ++i) a[i] = 2.0; }"
  in
  equivalent_after "f" src (fun m ->
      ignore (T.Dce.run m);
      Alcotest.(check int) "alloc gone" 0 (count_ops m "memref.alloc");
      Alcotest.(check int) "dead loop gone" 1 (count_ops m "affine.for"))

let test_dce_removes_library_written_buffer () =
  (* Every structured op writes its last operand: a buffer that only a
     blas.sconv2d writes is dead. *)
  let m =
    Parser.parse_module
      {|builtin.module {
  func.func @f(%I: memref<1x2x6x6xf32>, %W: memref<3x2x3x3xf32>) {
    %O = memref.alloc() : memref<1x3x4x4xf32>
    blas.sconv2d %I, %W, %O : memref<1x2x6x6xf32>, memref<3x2x3x3xf32>, memref<1x3x4x4xf32>
    func.return
  }
}|}
  in
  ignore (T.Dce.run m);
  Alcotest.(check int) "alloc gone" 0 (count_ops m "memref.alloc");
  Alcotest.(check int) "call gone" 0 (count_ops m "blas.sconv2d")

let test_dce_keeps_live_buffer () =
  let src =
    "void f(float a[8]) { float t[8]; for (int i = 0; i < 8; ++i) t[i] = \
     1.0; for (int i = 0; i < 8; ++i) a[i] = t[i]; }"
  in
  let m = translate src in
  ignore (T.Dce.run m);
  Alcotest.(check int) "alloc kept" 1 (count_ops m "memref.alloc")

(* --- affine -> scf -------------------------------------------------------- *)

let test_lower_affine_to_scf () =
  List.iter
    (fun (name, src) ->
      equivalent_after name src (fun m ->
          T.Lower_affine.run m;
          Alcotest.(check int) (name ^ ": no affine.for") 0
            (count_ops m "affine.for");
          Alcotest.(check int) (name ^ ": no affine.load") 0
            (count_ops m "affine.load")))
    (W.tiny_suite ())

let test_lower_affine_with_reshape_delinearization () =
  (* TTGT raising then linalg lowering produces floordiv/mod maps; the SCF
     lowering must expand them to arith ops correctly. *)
  let spec = Workloads.Contraction_spec.parse "abc-acd-db" in
  let sizes = [ ('a', 3); ('b', 4); ('c', 5); ('d', 6) ] in
  let src =
    Workloads.Contraction_spec.c_source spec ~sizes ~init:false ~name:"kern" ()
  in
  equivalent_after "kern" src (fun m ->
      let tdl = Tdl.Frontend.contraction_tdl ~name:"T" "abc" "acd" "db" in
      ignore (Rewriter.apply_greedily m (Rewriter.freeze (Tdl.Backend.compile_tdl tdl)));
      T.Lower_linalg.run m;
      T.Lower_affine.run m;
      Alcotest.(check bool) "has scf loops" true (count_ops m "scf.for" > 0);
      Alcotest.(check bool) "has integer division" true
        (count_ops m "arith.floordivsi" > 0))

let suite =
  [
    Alcotest.test_case "lower linalg.matmul roundtrip" `Quick
      test_lower_linalg_roundtrip;
    Alcotest.test_case "lower TTGT pipeline roundtrip" `Quick
      test_lower_linalg_ttgt_roundtrip;
    Alcotest.test_case "lower matvec kernels" `Quick test_lower_matvec_both;
    Alcotest.test_case "named ops lower as their contraction" `Quick
      test_lower_named_as_contract;
    Alcotest.test_case "tile divisible" `Quick test_tile_divisible;
    Alcotest.test_case "tile non-divisible (min bounds)" `Quick
      test_tile_non_divisible;
    Alcotest.test_case "tile larger than trip count" `Quick
      test_tile_larger_than_trip;
    Alcotest.test_case "tile all tiny kernels" `Quick
      test_tile_imperfect_nest_kernels;
    Alcotest.test_case "fuse identical bounds" `Quick
      test_fuse_identical_bounds;
    Alcotest.test_case "smartfuse requires shared data" `Quick
      test_smartfuse_needs_shared_data;
    Alcotest.test_case "fusion blocked by dependences" `Quick
      test_fuse_blocked_by_dependence;
    Alcotest.test_case "fusion preserves semantics (all kernels)" `Quick
      test_fuse_preserves_semantics_all;
    Alcotest.test_case "pluto sweep preserves semantics" `Quick
      test_pluto_configs_preserve_semantics;
    Alcotest.test_case "canonicalize enables alpha=1 raising" `Quick
      test_canonicalize_alpha_one;
    Alcotest.test_case "canonicalize folds constants" `Quick
      test_canonicalize_folds_constants;
    Alcotest.test_case "canonicalize: x*0 gated behind fast-math" `Quick
      test_canonicalize_mul_zero_gated;
    Alcotest.test_case "canonicalize: NaN/inf const folds" `Quick
      test_canonicalize_nan_inf_const_folds;
    Alcotest.test_case "dce removes dead buffers" `Quick
      test_dce_removes_dead_buffer;
    Alcotest.test_case "dce keeps live buffers" `Quick
      test_dce_keeps_live_buffer;
    Alcotest.test_case "dce removes a buffer only blas.sconv2d writes" `Quick
      test_dce_removes_library_written_buffer;
    Alcotest.test_case "lower affine to scf (all kernels)" `Quick
      test_lower_affine_to_scf;
    Alcotest.test_case "scf lowering of delinearized reshape" `Quick
      test_lower_affine_with_reshape_delinearization;
  ]
