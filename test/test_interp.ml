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

let same_bits a b =
  a.B.shape = b.B.shape
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.B.data b.B.data

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
      same_bits got want)

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
      (if exact then same_bits c1 c2 else B.approx_equal c1 c2);
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
    (check ~exact:true "conv2d_nchw" (maps "blas.sconv2d")
       [ [ 2; 3; 6; 7 ]; [ 4; 3; 3; 2 ]; [ 2; 4; 4; 6 ] ]
       K.conv2d_nchw)

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
      same_bits o1 o2)

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

(* [Eval.equivalent] hands the second module a copy of the first's input
   battery, taken before either runs. *)
let test_equivalent_shares_inputs () =
  let tr = Met.Emit_affine.translate in
  let copy_out =
    tr
      "void k(float A[5][7], float B[5][7]) {\n\
      \  for (int i = 0; i < 5; ++i)\n\
      \    for (int j = 0; j < 7; ++j)\n\
      \      B[i][j] = A[i][j];\n\
       }\n"
  in
  let bump =
    tr
      "void k(float A[5][7], float B[5][7]) {\n\
      \  for (int i = 0; i < 5; ++i)\n\
      \    for (int j = 0; j < 7; ++j)\n\
      \      A[i][j] = A[i][j] + 1.0;\n\
       }\n"
  in
  let check what expected m1 m2 =
    List.iter
      (fun engine ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (%s)" what (Interp.Rt.engine_name engine))
          expected
          (Interp.Eval.equivalent ~eps:0. ~engine m1 m2 "k" ~seed:5))
      [ Interp.Eval.Walk; Interp.Eval.Compiled ]
  in
  (* B holds a copy of A on return: with no tolerance, both modules read
     the same bits. *)
  check "inputs copied out agree" true copy_out (Ir.Core.clone_op copy_out);
  (* An in-place update run twice on one battery would add 2. *)
  check "in-place update, copied before the first run" true bump
    (Ir.Core.clone_op bump);
  check "different outputs differ" false copy_out bump;
  (* The battery is the one [run_on_random] draws. *)
  let drawn = Interp.Eval.run_on_random copy_out "k" ~seed:5 in
  let a = List.hd drawn and b = List.nth drawn 1 in
  Alcotest.(check bool) "B = A, bit for bit" true (same_bits a b);
  let fresh = B.create [ 5; 7 ] in
  B.randomize ~seed:5 fresh;
  Alcotest.(check bool) "A is seed's battery" true (same_bits a fresh)

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
    Alcotest.test_case "signed floordiv/rem sign grid (both engines)" `Quick
      test_interp_signed_div_rem;
    Alcotest.test_case "div/rem by zero raise cleanly (both engines)" `Quick
      test_interp_div_rem_by_zero;
  ]
