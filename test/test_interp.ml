(* Tests for the buffer substrate, reference kernels, and IR interpreter. *)

module B = Interp.Buffer
module K = Interp.Kernels
module W = Workloads.Polybench

(* The index-array transpose the library kernel replaced: one source and
   one destination index vector per element, read through
   [Buffer.get]/[Buffer.set]. The strided [Kernels.transpose] must move
   the same bits. *)
module Ref_transpose = struct
  let transpose ~perm src dst =
    let rank = B.rank dst in
    let inv = Ir.Affine_map.inverse_permutation perm in
    let src_idx = Array.make rank 0 in
    let dst_idx = Array.make rank 0 in
    (* dst dim d draws from src dim perm.(d): src_idx.(j) = dst_idx.(inv.(j)). *)
    let rec go d =
      if d = rank then begin
        for j = 0 to rank - 1 do
          src_idx.(j) <- dst_idx.(inv.(j))
        done;
        B.set dst dst_idx (B.get src src_idx)
      end
      else
        for i = 0 to dst.B.shape.(d) - 1 do
          dst_idx.(d) <- i;
          go (d + 1)
        done
    in
    go 0
end

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

(* Random rank 2-4 shapes with extents 1-5, each with a random
   permutation. *)
let shape_and_perm =
  let gen st =
    let rank = 2 + Random.State.int st 3 in
    let shape = Array.init rank (fun _ -> 1 + Random.State.int st 5) in
    let perm = Array.init rank Fun.id in
    for i = rank - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    (shape, perm)
  in
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  QCheck.make gen ~print:(fun (shape, perm) ->
      Printf.sprintf "shape [%s] perm [%s]" (ints shape) (ints perm))

let prop_transpose_matches_oracle =
  QCheck.Test.make ~name:"strided transpose = index-array oracle" ~count:200
    (QCheck.pair shape_and_perm QCheck.small_nat)
    (fun ((shape, perm), seed) ->
      let src = B.create (Array.to_list shape) in
      B.randomize ~seed src;
      let out_shape =
        Linalg.Linalg_ops.transposed_shape perm (Array.to_list shape)
      in
      let got = B.create out_shape and want = B.create out_shape in
      K.transpose ~perm src got;
      Ref_transpose.transpose ~perm src want;
      Ref_interp.same_bits got want)

(* [approx_equal] pinned on its edge cases: NaNs agree only with NaNs,
   infinities only with themselves, signed zeros are equal, the
   tolerance is [eps *. max 1 |x| |y|] inclusive, and buffers of other
   shapes never agree. *)
let test_approx_equal_table () =
  let one x = B.init [ 1 ] (fun _ -> x) in
  List.iter
    (fun (what, eps, a, b, expected) ->
      Alcotest.(check bool) what expected (B.approx_equal ?eps a b))
    [
      ("NaN / NaN", None, one Float.nan, one Float.nan, true);
      ("NaN / 1", None, one Float.nan, one 1.0, false);
      ("1 / NaN", None, one 1.0, one Float.nan, false);
      ("inf / inf", None, one Float.infinity, one Float.infinity, true);
      ("-inf / -inf", None, one Float.neg_infinity, one Float.neg_infinity, true);
      ("inf / -inf", None, one Float.infinity, one Float.neg_infinity, false);
      ("inf / max_float", None, one Float.infinity, one Float.max_float, false);
      ("0 / -0", None, one 0.0, one (-0.0), true);
      ("-0 / 0", Some 0., one (-0.0), one 0.0, true);
      ("equal, eps 0", Some 0., one 1e300, one 1e300, true);
      ("1 ulp apart, eps 0", Some 0., one 1.0, one (Float.succ 1.0), false);
      (* eps 0.25 at scale 4: the tolerance is exactly 1. *)
      ("on eps*scale", Some 0.25, one 3.0, one 4.0, true);
      ("just inside eps*scale", Some 0.25, one (Float.succ 3.0), one 4.0, true);
      ("just outside eps*scale", Some 0.25, one (Float.pred 3.0), one 4.0, false);
      (* Below 1 the scale is 1: the tolerance is eps itself. *)
      ("on eps, scale 1", Some 0.25, one 0.0, one 0.25, true);
      ("just outside eps, scale 1", Some 0.25, one 0.0, one (Float.succ 0.25), false);
      ("default eps inside", None, one 1.0, one 1.00001, true);
      ("default eps outside", None, one 1.0, one 1.001, false);
      ("shape [2] / [1; 2]", None, B.create [ 2 ], B.create [ 1; 2 ], false);
      ("shape [2; 3] / [3; 2]", None, B.create [ 2; 3 ], B.create [ 3; 2 ], false);
      ( "one bad element of three",
        None,
        B.init [ 3 ] (fun i -> float_of_int i.(0)),
        B.init [ 3 ] (fun i -> if i.(0) = 1 then Float.nan else float_of_int i.(0)),
        false );
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
  let check ?(exact = false) what maps shapes named =
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
    Alcotest.(check bool) (what ^ ": same result") true
      (if exact then Ref_interp.same_bits c1 c2 else B.approx_equal c1 c2);
    dims
  in
  Alcotest.(check (array int)) "inferred space" [| 4; 3; 5 |]
    (check ~exact:true "matmul" (maps "linalg.matmul")
       [ [ 4; 5 ]; [ 5; 3 ]; [ 4; 3 ] ]
       K.matmul);
  ignore
    (check ~exact:true "matvec" (maps "linalg.matvec")
       [ [ 4; 5 ]; [ 5 ]; [ 4 ] ]
       (K.matvec ~transpose:false));
  ignore
    (check "matvec^T"
       (maps ~attrs:[ ("transpose", Ir.Attr.Bool true) ] "blas.sgemv")
       [ [ 4; 5 ]; [ 4 ]; [ 5 ] ]
       (K.matvec ~transpose:true));
  ignore
    (check ~exact:true "conv2d_nchw" (maps "blas.sconv2d")
       [ [ 2; 3; 6; 7 ]; [ 4; 3; 3; 2 ]; [ 2; 4; 4; 6 ] ]
       K.conv2d_nchw)

(* A library kernel adds each output's products in its loops' order,
   starting from the output's value: under mlt-blas every tiny-suite
   kernel computes the bits clang-O3's loops compute. *)
let test_library_kernels_match_loops () =
  List.iter
    (fun (name, src) ->
      let run config =
        let m = Mlt.Pipeline.prepare_schedule (Mlt.Pipeline.Config config) src in
        Interp.Eval.run_on_random m (Test_interp_compile.func_name_of m) ~seed:13
      in
      if
        not
          (Ref_interp.all_same_bits
             (run Mlt.Pipeline.Clang_O3) (run Mlt.Pipeline.Mlt_blas))
      then Alcotest.failf "%s: mlt-blas differs from clang-O3 in bits" name)
    (W.tiny_suite ());
  (* Nothing skips a zero of A: 0 * inf is NaN, and -0 + 0 * 1 is +0. *)
  let a = B.init [ 1; 1 ] (fun _ -> 0.) in
  let b = B.init [ 1; 2 ] (fun i -> if i.(1) = 0 then Float.infinity else 1.) in
  let c = B.init [ 1; 2 ] (fun _ -> -0.) in
  K.matmul a b c;
  Alcotest.(check bool) "-0 + 0 * inf is NaN" true (Float.is_nan (B.get c [| 0; 0 |]));
  Alcotest.(check int64) "-0 + 0 * 1 is +0" 0L
    (Int64.bits_of_float (B.get c [| 0; 1 |]))

(* [conv2d_nchw] adds the products in [contract]'s order over the
   [blas.sconv2d] maps (channel, then kernel row, then kernel column,
   innermost), so the two agree bit for bit on any shapes. *)
let prop_conv2d_matches_contract =
  let maps = Option.get (Ir.Structured.maps (Ir.Core.create_op "blas.sconv2d")) in
  QCheck.Test.make ~name:"strided conv2d_nchw = contract, bit for bit"
    ~count:100
    QCheck.(
      pair
        (quad (int_range 1 2) (int_range 1 3) (int_range 1 3) (int_range 0 3))
        (quad (int_range 1 3) (int_range 1 3) (int_range 0 3) small_nat))
    (fun ((n, c, f, dh), (kh, kw, dw, seed)) ->
      let h = kh + dh and w = kw + dw in
      let shapes =
        [ [ n; c; h; w ]; [ f; c; kh; kw ]; [ n; f; dh + 1; dw + 1 ] ]
      in
      let[@warning "-8"] [ i; wt; o1 ] =
        List.mapi
          (fun k s ->
            let b = B.create s in
            B.randomize ~seed:(seed + k) b;
            b)
          shapes
      in
      let o2 = B.copy o1 in
      let dims =
        Ir.Structured.iteration_dims ~maps
          ~shapes:[ i.B.shape; wt.B.shape; o1.B.shape ]
      in
      K.contract ~loc:Support.Loc.unknown ~maps ~dims i wt o1;
      K.conv2d_nchw i wt o2;
      Ref_interp.same_bits o1 o2)

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

let expect_iter_args_error f loop =
  List.iter
    (fun (engine, run_func) ->
      try
        run_func f [];
        Alcotest.fail "expected an iter_args error"
      with Support.Diag.Error (loc, msg) ->
        Alcotest.(check bool) (engine ^ " names iter_args") true
          (Astring_contains.contains msg "iter_args");
        check_located (engine ^ " iter_args") loop loc)
    Ref_interp.engines

let test_interp_affine_for_iter_args_diagnosed () =
  (* A loop with results (loop-carried iter_args) is unsupported; the
     reference and the compiled engine must say so eagerly at the loop op instead of failing later
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
  expect_iter_args_error f loop

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
  expect_iter_args_error f loop

let test_interp_signed_div_rem () =
  (* Floor-division semantics on the full sign grid, on the reference
     and the compiled engine:
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
    (fun (engine, run_func) ->
      let buf = B.create [ 8 ] in
      run_func f [ buf ];
      List.iteri
        (fun i (x, y, ed, er) ->
          let tag op = Printf.sprintf "%s: %d %s %d" engine x op y in
          Alcotest.(check (float 0.)) (tag "floordiv") ed
            (B.get buf [| 2 * i |]);
          Alcotest.(check (float 0.)) (tag "rem") er
            (B.get buf [| (2 * i) + 1 |]))
        cases)
    Ref_interp.engines

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
        (fun (engine, run_func) ->
          try
            run_func f [ B.create [ 1 ] ];
            Alcotest.failf "%s: expected a division-by-zero error" engine
          with Support.Diag.Error (loc, msg) ->
            Alcotest.(check bool) (engine ^ " mentions zero") true
              (Astring_contains.contains msg "zero");
            check_located (engine ^ " division by zero") div loc)
        Ref_interp.engines)
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

(* [Eval.equivalent] hands the second module a copy of the first's input
   battery, taken before either runs. *)
let func_k m = Option.get (Ir.Core.find_func m "k")

let test_equivalent_shares_inputs () =
  let tr = Met.Emit_affine.translate in
  let kernel body =
    tr
      (Printf.sprintf "void k(float A[5][7], float B[5][7]) {\n%s\n}\n" body)
  in
  let rows = "for (int i = 0; i < 5; ++i) for (int j = 0; j < 7; ++j)" in
  let columns = "for (int j = 0; j < 7; ++j) for (int i = 0; i < 5; ++i)" in
  let copy_out = kernel (rows ^ " B[i][j] = A[i][j];") in
  let copy_out_by_column = kernel (columns ^ " B[i][j] = A[i][j];") in
  let bump = kernel (rows ^ " A[i][j] = A[i][j] + 1.0;") in
  let bump_swapped = kernel (rows ^ " A[i][j] = 1.0 + A[i][j];") in
  let check what expected m1 m2 =
    (* Structurally different functions: both run. *)
    Alcotest.(check bool) (what ^ ": not structurally equal") false
      (Ir.Core.structural_equal (func_k m1) (func_k m2));
    Alcotest.(check bool) what expected
      (Interp.Eval.equivalent ~eps:0. m1 m2 "k" ~seed:5)
  in
  (* B holds a copy of A on return: with no tolerance, both modules read
     the same bits. *)
  check "inputs copied out agree" true copy_out copy_out_by_column;
  (* An in-place update run twice on one battery would add 2. *)
  check "in-place update, copied before the first run" true bump bump_swapped;
  check "different outputs differ" false copy_out bump;
  (* The battery is the one [run_on_random] draws. *)
  let drawn = Interp.Eval.run_on_random copy_out "k" ~seed:5 in
  let a = List.hd drawn and b = List.nth drawn 1 in
  Alcotest.(check bool) "B = A, bit for bit" true (Ref_interp.same_bits a b);
  let fresh = B.create [ 5; 7 ] in
  B.randomize ~seed:5 fresh;
  Alcotest.(check bool) "A is seed's battery" true
    (Ref_interp.same_bits a fresh);
  Alcotest.(check bool) "the reference draws the same battery" true
    (Ref_interp.all_same_bits drawn
       (Ref_interp.run_on_random copy_out "k" ~seed:5))

(* [f ()] under a sink counting [interp] exec spans and collecting each
   check span's [identical] argument. *)
let with_check_spans f =
  let execs = ref 0 and identical = ref [] in
  let sink (e : Ir.Trace.event) =
    if e.ev_cat = "interp" && e.ev_phase = Ir.Trace.Begin then
      match e.ev_name with
      | "exec" -> incr execs
      | "check" -> (
          match List.assoc_opt "identical" e.ev_args with
          | Some (Ir.Trace.A_bool b) -> identical := b :: !identical
          | _ -> Alcotest.fail "check span without an identical flag")
      | _ -> ()
  in
  let result =
    Ir.Trace.with_sink sink (fun () ->
        match f () with v -> Ok v | exception e -> Error e)
  in
  (result, !execs, List.rev !identical)

(* A function structurally equal to the reference runs once, and says
   so; its located errors still raise. *)
let test_equivalent_identical_runs_once () =
  let tr = Met.Emit_affine.translate in
  let m = tr (W.gemm ~ni:6 ~nj:5 ~nk:4 ()) in
  let check what m2 ~verdict ~execs ~identical =
    match
      with_check_spans (fun () -> Interp.Eval.equivalent m m2 "gemm" ~seed:3)
    with
    | Ok v, n, flags ->
        Alcotest.(check bool) (what ^ ": verdict") verdict v;
        Alcotest.(check int) (what ^ ": exec spans") execs n;
        Alcotest.(check (list bool)) (what ^ ": identical") [ identical ] flags
    | Error e, _, _ -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  check "the module itself" m ~verdict:true ~execs:1 ~identical:true;
  check "a clone" (Ir.Core.clone_op m) ~verdict:true ~execs:1 ~identical:true;
  let tiled = Ir.Core.clone_op m in
  Transforms.Loop_tile.tile_all tiled ~size:2;
  check "a tiled copy" tiled ~verdict:true ~execs:2 ~identical:false;
  (* Reading A[i] at i = 4 runs out of bounds at the load. *)
  let oob =
    tr
      "void k(float A[4], float B[5]) {\n\
      \  for (int i = 0; i < 5; ++i) B[i] = A[i];\n\
       }\n"
  in
  match
    with_check_spans (fun () ->
        Interp.Eval.equivalent oob (Ir.Core.clone_op oob) "k" ~seed:1)
  with
  | Error (Support.Diag.Error (loc, msg)), 1, [ true ] ->
      Alcotest.(check bool) ("located: " ^ msg) true (Support.Loc.is_known loc)
  | Error e, n, _ ->
      Alcotest.failf "raised %s after %d exec spans" (Printexc.to_string e) n
  | Ok _, _, _ -> Alcotest.fail "an out-of-bounds read ran"

(* One changed constant, a swapped operand pair or -0.0 for 0.0 in a
   clone makes it a different function: both run, and differing outputs
   answer [false]. *)
let test_equivalent_changed_clone_runs_both () =
  let m =
    Met.Emit_affine.translate
      "void k(float A[4], float C[4], float B[4], float D[4]) {\n\
      \  for (int i = 0; i < 4; ++i) {\n\
      \    B[i] = (A[i] - C[i]) * 2.0;\n\
      \    D[i] = 1.0 / (A[i] * 0.0);\n\
      \  }\n\
       }\n"
  in
  let changed what edit =
    let m2 = Ir.Core.clone_op m in
    let f = func_k m2 in
    edit f;
    match
      with_check_spans (fun () -> Interp.Eval.equivalent m m2 "k" ~seed:9)
    with
    | Ok v, n, flags ->
        Alcotest.(check bool) (what ^ ": verdict") false v;
        Alcotest.(check int) (what ^ ": exec spans") 2 n;
        Alcotest.(check (list bool)) (what ^ ": identical") [ false ] flags
    | Error e, _, _ -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  let constant f v =
    Option.get
      (Ir.Core.find_op f (fun op ->
           op.Ir.Core.o_name = "arith.constant"
           && Ir.Attr.equal (Ir.Core.attr op "value") (Ir.Attr.Float v)))
  in
  changed "2.0 -> 3.0" (fun f ->
      Ir.Core.set_attr (constant f 2.0) "value" (Ir.Attr.Float 3.0));
  changed "A - C -> C - A" (fun f ->
      let sub =
        Option.get
          (Ir.Core.find_op f (fun op -> op.Ir.Core.o_name = "arith.subf"))
      in
      let a = Ir.Core.operand sub 0 and c = Ir.Core.operand sub 1 in
      Ir.Core.set_operand sub 0 c;
      Ir.Core.set_operand sub 1 a);
  (* 1 / (A * -0.0) is -inf where 1 / (A * 0.0) is +inf. *)
  changed "0.0 -> -0.0" (fun f ->
      Ir.Core.set_attr (constant f 0.0) "value" (Ir.Attr.Float (-0.0)))

(* Signatures that differ are drawn for each module and answer [false]
   without raising. *)
let test_equivalent_signature_mismatch () =
  let tr = Met.Emit_affine.translate in
  let kernel params body = tr (Printf.sprintf "void k(%s) {\n%s\n}\n" params body) in
  let base =
    kernel "float A[4], float B[4]"
      "for (int i = 0; i < 4; ++i) B[i] = A[i];"
  in
  let extra_arg =
    kernel "float A[4], float B[4], float C[4]"
      "for (int i = 0; i < 4; ++i) B[i] = A[i];"
  in
  let other_shape =
    kernel "float A[5], float B[5]"
      "for (int i = 0; i < 4; ++i) B[i] = A[i];"
  in
  List.iter
    (fun (what, m1, m2) ->
      match Interp.Eval.equivalent m1 m2 "k" ~seed:1 with
      | verdict -> Alcotest.(check bool) what false verdict
      | exception e ->
          Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    [
      ("one more argument", base, extra_arg);
      ("one fewer argument", extra_arg, base);
      ("other shapes", base, other_shape);
    ]

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
    Alcotest.test_case "approx_equal table" `Quick test_approx_equal_table;
    QCheck_alcotest.to_alcotest prop_transpose_matches_oracle;
    Alcotest.test_case "reshape kernel" `Quick test_reshape_kernel;
    Alcotest.test_case "contract generalizes matmul" `Quick
      test_contract_kernel_is_matmul;
    Alcotest.test_case "library kernels compute what their loops compute"
      `Quick test_library_kernels_match_loops;
    QCheck_alcotest.to_alcotest prop_conv2d_matches_contract;
    Alcotest.test_case "equivalent: one input battery, copied" `Quick
      test_equivalent_shares_inputs;
    Alcotest.test_case "equivalent: signature mismatch is false" `Quick
      test_equivalent_signature_mismatch;
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
    Alcotest.test_case
      "signed floordiv/rem sign grid (reference and compiled)" `Quick
      test_interp_signed_div_rem;
    Alcotest.test_case
      "div/rem by zero raise cleanly (reference and compiled)" `Quick
      test_interp_div_rem_by_zero;
    Alcotest.test_case "equivalent: an identical function runs once" `Quick
      test_equivalent_identical_runs_once;
    Alcotest.test_case "equivalent: a changed clone runs both" `Quick
      test_equivalent_changed_clone_runs_both;
  ]
