(* Tests for the buffer substrate, reference kernels, and IR interpreter. *)

module B = Interp.Buffer
module K = Interp.Kernels
module W = Workloads.Polybench

let test_buffer_indexing () =
  let b = B.create [ 2; 3; 4 ] in
  Alcotest.(check int) "elements" 24 (B.num_elements b);
  Alcotest.(check int) "strides" 12 b.B.strides.(0);
  B.set b [| 1; 2; 3 |] 42.;
  Alcotest.(check (float 0.)) "get back" 42. (B.get b [| 1; 2; 3 |]);
  Alcotest.(check int) "linear" 23 (B.linear_index b [| 1; 2; 3 |]);
  Alcotest.check_raises "oob"
    (Invalid_argument "Buffer: index 4 out of bounds [0, 4) at dim 2")
    (fun () -> ignore (B.get b [| 0; 0; 4 |]))

let test_buffer_init_iter () =
  let b = B.init [ 3; 3 ] (fun idx -> float_of_int ((idx.(0) * 3) + idx.(1))) in
  Alcotest.(check (float 0.)) "row major" 5. b.B.data.(5)

let test_matmul_kernel () =
  let a = B.init [ 2; 3 ] (fun i -> float_of_int ((i.(0) * 3) + i.(1))) in
  let b = B.init [ 3; 2 ] (fun i -> float_of_int ((i.(0) * 2) + i.(1))) in
  let c = B.create [ 2; 2 ] in
  K.matmul a b c;
  (* [[0 1 2][3 4 5]] x [[0 1][2 3][4 5]] = [[10 13][28 40]] *)
  Alcotest.(check (float 0.)) "c00" 10. (B.get c [| 0; 0 |]);
  Alcotest.(check (float 0.)) "c01" 13. (B.get c [| 0; 1 |]);
  Alcotest.(check (float 0.)) "c10" 28. (B.get c [| 1; 0 |]);
  Alcotest.(check (float 0.)) "c11" 40. (B.get c [| 1; 1 |]);
  (* Accumulating semantics: running again doubles. *)
  K.matmul a b c;
  Alcotest.(check (float 0.)) "accumulates" 20. (B.get c [| 0; 0 |])

let test_matvec_kernel () =
  let a = B.init [ 2; 3 ] (fun i -> float_of_int ((i.(0) * 3) + i.(1))) in
  let x = B.init [ 3 ] (fun i -> float_of_int (i.(0) + 1)) in
  let y = B.create [ 2 ] in
  K.matvec a x y;
  Alcotest.(check (float 0.)) "y0" 8. (B.get y [| 0 |]);
  Alcotest.(check (float 0.)) "y1" 26. (B.get y [| 1 |]);
  let xt = B.init [ 2 ] (fun i -> float_of_int (i.(0) + 1)) in
  let yt = B.create [ 3 ] in
  K.matvec ~transpose:true a xt yt;
  (* y = A^T [1;2]: columns dot [1;2] = [6; 9; 12] *)
  Alcotest.(check (float 0.)) "yt0" 6. (B.get yt [| 0 |]);
  Alcotest.(check (float 0.)) "yt2" 12. (B.get yt [| 2 |])

let test_transpose_kernel () =
  let src = B.init [ 2; 3; 4 ] (fun i -> float_of_int ((100 * i.(0)) + (10 * i.(1)) + i.(2))) in
  let dst = B.create [ 2; 4; 3 ] in
  K.transpose ~perm:[| 0; 2; 1 |] src dst;
  Alcotest.(check (float 0.)) "dst[1,3,2] = src[1,2,3]" 123.
    (B.get dst [| 1; 3; 2 |])

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose twice is identity" ~count:50
    (QCheck.triple (QCheck.int_range 1 5) (QCheck.int_range 1 5)
       (QCheck.int_range 1 5))
    (fun (x, y, z) ->
      let src = B.create [ x; y; z ] in
      B.randomize ~seed:7 src;
      let mid = B.create [ y; z; x ] in
      (* perm [1;2;0]: out dim d = src dim perm(d). *)
      K.transpose ~perm:[| 1; 2; 0 |] src mid;
      let back = B.create [ x; y; z ] in
      K.transpose ~perm:[| 2; 0; 1 |] mid back;
      B.approx_equal ~eps:0. src back)

(* A NaN or an infinity agrees only with a NaN or the same infinity, so a
   schedule that turns a finite result into one fails the differential
   check. *)
let test_approx_equal_non_finite () =
  let agree x y =
    B.approx_equal (B.init [ 1 ] (fun _ -> x)) (B.init [ 1 ] (fun _ -> y))
  in
  List.iter
    (fun (x, y, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "approx_equal [%g] [%g]" x y)
        expected (agree x y))
    [
      (Float.nan, 1.0, false);
      (1.0, Float.nan, false);
      (Float.infinity, 1.0, false);
      (Float.neg_infinity, 1.0, false);
      (Float.infinity, Float.neg_infinity, false);
      (1.0, 2.0, false);
      (1.0, 1.00001, true);
      (Float.nan, Float.nan, true);
      (Float.infinity, Float.infinity, true);
      (-0.0, 0.0, true);
    ]

let test_reshape_kernel () =
  let src = B.init [ 2; 6 ] (fun i -> float_of_int ((i.(0) * 6) + i.(1))) in
  let dst = B.create [ 2; 2; 3 ] in
  K.reshape_copy src dst;
  Alcotest.(check (float 0.)) "relayout" 9. (B.get dst [| 1; 1; 0 |])

let test_contract_kernel_is_matmul () =
  (* Each named kernel computes the generic contraction over the indexing
     maps Ir.Structured gives its op. *)
  let maps ?(attrs = []) name =
    Option.get (Ir.Structured.maps (Ir.Core.create_op ~attrs name))
  in
  let check what maps shapes named =
    let[@warning "-8"] [ a; b; c1 ] =
      List.mapi
        (fun i s ->
          let buf = B.create s in
          B.randomize ~seed:(i + 1) buf;
          buf)
        shapes
    in
    let c2 = { c1 with B.data = Array.copy c1.B.data } in
    let dims =
      Ir.Structured.iteration_dims ~maps
        ~shapes:[ a.B.shape; b.B.shape; c1.B.shape ]
    in
    K.contract ~loc:Support.Loc.unknown ~maps ~dims a b c1;
    named a b c2;
    Alcotest.(check bool) (what ^ ": same result") true (B.approx_equal c1 c2);
    dims
  in
  Alcotest.(check (array int)) "inferred space" [| 4; 3; 5 |]
    (check "matmul" (maps "linalg.matmul")
       [ [ 4; 5 ]; [ 5; 3 ]; [ 4; 3 ] ]
       K.matmul);
  ignore
    (check "matvec" (maps "linalg.matvec")
       [ [ 4; 5 ]; [ 5 ]; [ 4 ] ]
       (K.matvec ~transpose:false));
  ignore
    (check "matvec^T"
       (maps ~attrs:[ ("transpose", Ir.Attr.Bool true) ] "blas.sgemv")
       [ [ 4; 5 ]; [ 4 ]; [ 5 ] ]
       (K.matvec ~transpose:true));
  ignore
    (check "conv2d_nchw" (maps "blas.sconv2d")
       [ [ 2; 3; 6; 7 ]; [ 4; 3; 3; 2 ]; [ 2; 4; 4; 6 ] ]
       K.conv2d_nchw)

let test_interp_gemm_matches_reference () =
  let n = 6 in
  let m = Met.Emit_affine.translate (W.gemm ~ni:n ~nj:n ~nk:n ()) in
  let a = B.create [ n; n ] and b = B.create [ n; n ] and c = B.create [ n; n ] in
  B.randomize ~seed:3 a;
  B.randomize ~seed:4 b;
  B.randomize ~seed:5 c;
  (* gemm source zero-initializes C, so reference is plain matmul. *)
  let c_ref = B.create [ n; n ] in
  K.matmul a b c_ref;
  Interp.Eval.run m "gemm" [ a; b; c ];
  Alcotest.(check bool) "interpreted = reference" true
    (B.approx_equal c c_ref)

let test_interp_conv_matches_reference () =
  let m = Met.Emit_affine.translate (W.conv2d_nchw ~n:1 ~c:2 ~h:8 ~w:8 ~f:2 ~kh:3 ~kw:3 ()) in
  let i = B.create [ 1; 2; 8; 8 ] and w = B.create [ 2; 2; 3; 3 ] in
  let o = B.create [ 1; 2; 6; 6 ] and o_ref = B.create [ 1; 2; 6; 6 ] in
  B.randomize ~seed:6 i;
  B.randomize ~seed:7 w;
  K.conv2d_nchw i w o_ref;
  Interp.Eval.run m "conv2d_nchw" [ i; w; o ];
  Alcotest.(check bool) "interpreted conv = kernel" true
    (B.approx_equal o o_ref)

let test_interp_darknet_equals_2d_gemm () =
  (* The linearized Darknet kernel computes the same function as mm. *)
  let n = 5 in
  let lin = Met.Emit_affine.translate (W.darknet_gemm ~m:n ~n ~k:n ()) in
  let td = Met.Emit_affine.translate (W.mm ~ni:n ~nj:n ~nk:n ()) in
  let mk2 seed = let b = B.create [ n; n ] in B.randomize ~seed b; b in
  let mk1 seed = let b = B.create [ n * n ] in B.randomize ~seed b; b in
  let a2 = mk2 1 and b2 = mk2 2 and c2 = B.create [ n; n ] in
  let a1 = mk1 1 and b1 = mk1 2 and c1 = B.create [ n * n ] in
  Interp.Eval.run td "mm" [ a2; b2; c2 ];
  Interp.Eval.run lin "darknet_gemm" [ a1; b1; c1 ];
  Alcotest.(check (float 1e-5)) "same data" 0.
    (B.max_abs_diff c1 { c1 with B.data = c2.B.data })

let test_interp_distribution_preserves_semantics () =
  (* For every figure-9 workload: emission with and without loop
     distribution computes the same buffers. *)
  List.iter
    (fun (name, src) ->
      let ks = Met.C_parser.parse_program src in
      let m1 = Met.Emit_affine.program ~distribute:false ks in
      let m2 = Met.Emit_affine.program ~distribute:true ks in
      let fname = (List.hd ks).Met.C_ast.k_name in
      if not (Interp.Eval.equivalent m1 m2 fname ~seed:11) then
        Alcotest.failf "%s: distribution changed semantics" name)
    (W.tiny_suite ())

(* Interpreter errors are [Diag.Error]s located at the failing op: [loc]
   must be [op]'s own, known location. *)
let check_located what (op : Ir.Core.op) loc =
  Alcotest.(check bool) (what ^ ": op has a location") true
    (Support.Loc.is_known op.Ir.Core.o_loc);
  Alcotest.(check string) (what ^ ": error location")
    (Support.Loc.to_string op.Ir.Core.o_loc)
    (Support.Loc.to_string loc)

(* A location for IR built in memory. *)
let built_loc = Support.Loc.make ~file:"built.mlir" ~line:1 ~col:1

let test_interp_affine_for_step_guard () =
  (* A non-positive step must raise instead of looping forever. *)
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let f = Option.get (Ir.Core.find_func m "mm") in
  let loop = List.hd (Affine.Loops.all_loops f) in
  Ir.Core.set_attr loop "step" (Ir.Attr.Int 0);
  try
    ignore (Interp.Eval.run_on_random m "mm" ~seed:13);
    Alcotest.fail "expected a step error"
  with Support.Diag.Error (loc, msg) ->
    Alcotest.(check bool) "mentions the step" true
      (Astring_contains.contains msg "step");
    check_located "step" loop loc

let test_interp_affine_bound_no_results () =
  (* An affine bound map with zero results must fail cleanly (it used to
     crash on results.(0) with Invalid_argument). *)
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let f = Option.get (Ir.Core.find_func m "mm") in
  let loop = List.hd (Affine.Loops.all_loops f) in
  Ir.Core.set_attr loop "lower_bound"
    (Ir.Attr.Map (Ir.Affine_map.make ~n_dims:0 []));
  try
    ignore (Interp.Eval.run_on_random m "mm" ~seed:13);
    Alcotest.fail "expected a bound-map error"
  with Support.Diag.Error (loc, msg) ->
    Alcotest.(check bool) "mentions the bound map" true
      (Astring_contains.contains msg "bound map");
    check_located "bound map" loop loc

let expect_iter_args_error engine f loop =
  try
    Interp.Eval.run_func ~engine f [];
    Alcotest.fail "expected an iter_args error"
  with Support.Diag.Error (loc, msg) ->
    Alcotest.(check bool)
      (Interp.Rt.engine_name engine ^ " names iter_args")
      true
      (Astring_contains.contains msg "iter_args");
    check_located (Interp.Rt.engine_name engine ^ " iter_args") loop loc

let test_interp_affine_for_iter_args_diagnosed () =
  (* A loop with results (loop-carried iter_args) is unsupported; both
     engines must say so eagerly at the loop op instead of failing later
     with a misleading "no runtime binding". *)
  Ir.Core.with_loc built_loc @@ fun () ->
  let f = Ir.Core.create_func ~name:"f" ~arg_types:[] () in
  let body = Ir.Core.create_block [ Ir.Typ.Index ] in
  Ir.Core.append_op body (Ir.Core.create_op "affine.yield");
  let loop =
    Ir.Core.create_op "affine.for" ~result_types:[ Ir.Typ.F32 ]
      ~attrs:
        [
          ("lower_bound", Ir.Attr.Map (Ir.Affine_map.constant_map [ 0 ]));
          ("upper_bound", Ir.Attr.Map (Ir.Affine_map.constant_map [ 4 ]));
          ("step", Ir.Attr.Int 1);
        ]
      ~regions:[ Ir.Core.create_region [ body ] ]
  in
  Ir.Core.append_op (Ir.Core.func_entry f) loop;
  expect_iter_args_error Interp.Eval.Walk f loop;
  expect_iter_args_error Interp.Eval.Compiled f loop

let test_interp_scf_for_iter_args_diagnosed () =
  (* Same diagnosis for scf.for carrying an extra block argument. *)
  Ir.Core.with_loc built_loc @@ fun () ->
  let f = Ir.Core.create_func ~name:"f" ~arg_types:[] () in
  let b = Ir.Builder.at_end (Ir.Core.func_entry f) in
  let c0 = Std_dialect.Arith.constant_index b 0 in
  let c4 = Std_dialect.Arith.constant_index b 4 in
  let c1 = Std_dialect.Arith.constant_index b 1 in
  let body = Ir.Core.create_block [ Ir.Typ.Index; Ir.Typ.F32 ] in
  Ir.Core.append_op body (Ir.Core.create_op "scf.yield");
  let loop =
    Ir.Core.create_op "scf.for" ~operands:[ c0; c4; c1 ]
      ~regions:[ Ir.Core.create_region [ body ] ]
  in
  Ir.Core.append_op (Ir.Core.func_entry f) loop;
  expect_iter_args_error Interp.Eval.Walk f loop;
  expect_iter_args_error Interp.Eval.Compiled f loop

let test_interp_signed_div_rem () =
  (* Floor-division semantics on the full sign grid, on both engines:
     quotient rounds toward -inf, remainder carries the divisor's sign
     (consistent with affine Mod/Floor_div, so raise_scf/lower_affine
     round-trips preserve semantics for negative operands). *)
  let cases = [ (7, 2, 3., 1.); (-7, 2, -4., 1.); (7, -2, -4., -1.);
                (-7, -2, 3., -1.) ] in
  let f =
    Ir.Core.create_func ~name:"sg"
      ~arg_types:[ Ir.Typ.memref [ 8 ] Ir.Typ.F32 ]
      ()
  in
  let a = List.hd (Ir.Core.func_args f) in
  let b = Ir.Builder.at_end (Ir.Core.func_entry f) in
  List.iteri
    (fun i (x, y, _, _) ->
      let vx = Std_dialect.Arith.constant_int b x in
      let vy = Std_dialect.Arith.constant_int b y in
      let d = Std_dialect.Arith.floordivsi b vx vy in
      let r = Std_dialect.Arith.remsi b vx vy in
      let id = Std_dialect.Arith.constant_index b (2 * i) in
      let ir = Std_dialect.Arith.constant_index b ((2 * i) + 1) in
      ignore (Std_dialect.Memref_ops.store b d a [ id ]);
      ignore (Std_dialect.Memref_ops.store b r a [ ir ]))
    cases;
  List.iter
    (fun engine ->
      let buf = B.create [ 8 ] in
      Interp.Eval.run_func ~engine f [ buf ];
      List.iteri
        (fun i (x, y, ed, er) ->
          let tag op =
            Printf.sprintf "%s: %d %s %d" (Interp.Rt.engine_name engine) x op y
          in
          Alcotest.(check (float 0.)) (tag "floordiv") ed
            (B.get buf [| 2 * i |]);
          Alcotest.(check (float 0.)) (tag "rem") er
            (B.get buf [| (2 * i) + 1 |]))
        cases)
    [ Interp.Eval.Walk; Interp.Eval.Compiled ]

let test_interp_div_rem_by_zero () =
  List.iter
    (fun mk ->
      Ir.Core.with_loc built_loc @@ fun () ->
      let f =
        Ir.Core.create_func ~name:"z"
          ~arg_types:[ Ir.Typ.memref [ 1 ] Ir.Typ.F32 ]
          ()
      in
      let a = List.hd (Ir.Core.func_args f) in
      let b = Ir.Builder.at_end (Ir.Core.func_entry f) in
      let vx = Std_dialect.Arith.constant_int b 5 in
      let vz = Std_dialect.Arith.constant_int b 0 in
      let v = mk b vx vz in
      let c0 = Std_dialect.Arith.constant_index b 0 in
      ignore (Std_dialect.Memref_ops.store b v a [ c0 ]);
      let div = Option.get (Ir.Core.defining_op v) in
      List.iter
        (fun engine ->
          try
            Interp.Eval.run_func ~engine f [ B.create [ 1 ] ];
            Alcotest.fail "expected a division-by-zero error"
          with Support.Diag.Error (loc, msg) ->
            Alcotest.(check bool) "mentions zero" true
              (Astring_contains.contains msg "zero");
            check_located "division by zero" div loc)
        [ Interp.Eval.Walk; Interp.Eval.Compiled ])
    [ Std_dialect.Arith.floordivsi; Std_dialect.Arith.remsi ]

let test_interp_errors () =
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  (* Argument errors are located at the function. *)
  let f = Option.get (Ir.Core.find_func m "mm") in
  Ir.Core.set_loc f built_loc;
  (* Wrong arity *)
  (try
     Interp.Eval.run m "mm" [];
     Alcotest.fail "expected arity error"
   with Support.Diag.Error (loc, _) -> check_located "arity" f loc);
  (* Wrong shape *)
  try
    Interp.Eval.run m "mm"
      [ B.create [ 2; 2 ]; B.create [ 4; 4 ]; B.create [ 4; 4 ] ];
    Alcotest.fail "expected shape error"
  with Support.Diag.Error (loc, _) -> check_located "shape" f loc

let suite =
  [
    Alcotest.test_case "buffer indexing" `Quick test_buffer_indexing;
    Alcotest.test_case "buffer init order" `Quick test_buffer_init_iter;
    Alcotest.test_case "matmul kernel" `Quick test_matmul_kernel;
    Alcotest.test_case "matvec kernel (both orientations)" `Quick
      test_matvec_kernel;
    Alcotest.test_case "transpose kernel" `Quick test_transpose_kernel;
    QCheck_alcotest.to_alcotest prop_transpose_involution;
    Alcotest.test_case "approx_equal: NaN and infinities" `Quick
      test_approx_equal_non_finite;
    Alcotest.test_case "reshape kernel" `Quick test_reshape_kernel;
    Alcotest.test_case "contract generalizes matmul" `Quick
      test_contract_kernel_is_matmul;
    Alcotest.test_case "interp gemm = reference" `Quick
      test_interp_gemm_matches_reference;
    Alcotest.test_case "interp conv = reference" `Quick
      test_interp_conv_matches_reference;
    Alcotest.test_case "interp darknet = 2-d gemm" `Quick
      test_interp_darknet_equals_2d_gemm;
    Alcotest.test_case "distribution preserves semantics (all kernels)"
      `Quick test_interp_distribution_preserves_semantics;
    Alcotest.test_case "interp argument errors" `Quick test_interp_errors;
    Alcotest.test_case "affine.for rejects non-positive step" `Quick
      test_interp_affine_for_step_guard;
    Alcotest.test_case "affine bound map with no results fails cleanly"
      `Quick test_interp_affine_bound_no_results;
    Alcotest.test_case "affine.for iter_args diagnosed eagerly" `Quick
      test_interp_affine_for_iter_args_diagnosed;
    Alcotest.test_case "scf.for iter_args diagnosed eagerly" `Quick
      test_interp_scf_for_iter_args_diagnosed;
    Alcotest.test_case "signed floordiv/rem sign grid (both engines)" `Quick
      test_interp_signed_div_rem;
    Alcotest.test_case "div/rem by zero raise cleanly (both engines)" `Quick
      test_interp_div_rem_by_zero;
  ]
