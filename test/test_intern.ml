(* Value equality of Typ/Attr/Affine_expr/Affine_map: types, attributes
   and affine maps are plain values, so [equal] alone decides when two of
   them are the same, whichever nodes they share; plus the compiled
   matcher automaton's conservative pruning. *)

open Ir
module W = Workloads.Polybench

(* ---- a value equals its node-disjoint clone ------------------------ *)

(* Generators produce values through the plain constructors, and [clone]
   rebuilds a structurally equal value sharing no allocated node with it,
   so [equal] cannot answer from its physical ([==]) fast path and must
   walk the structure. *)
let gen_typ =
  let open QCheck.Gen in
  let scalar =
    oneofl [ Typ.F32; Typ.F64; Typ.I1; Typ.I32; Typ.I64; Typ.Index ]
  in
  let dim =
    oneof [ return Typ.Dynamic; map (fun n -> Typ.Static n) (int_range 1 64) ]
  in
  let memref =
    let* shape = list_size (int_range 1 4) dim in
    let* elem = scalar in
    return (Typ.Mem_ref (shape, elem))
  in
  let leaf = oneof [ scalar; memref ] in
  let* args = list_size (int_range 0 3) leaf in
  let* results = list_size (int_range 0 2) leaf in
  oneof [ leaf; return (Typ.Fun (args, results)) ]

let rec clone_typ = function
  | (Typ.F32 | Typ.F64 | Typ.I1 | Typ.I32 | Typ.I64 | Typ.Index) as t -> t
  | Typ.Mem_ref (shape, elem) ->
      Typ.Mem_ref
        ( List.map
            (function Typ.Static n -> Typ.Static n | Typ.Dynamic -> Typ.Dynamic)
            shape,
          clone_typ elem )
  | Typ.Fun (args, results) ->
      Typ.Fun (List.map clone_typ args, List.map clone_typ results)

let prop_typ_clone_equal =
  QCheck.Test.make ~name:"types equal their node-disjoint clones" ~count:200
    (QCheck.make ~print:Typ.to_string gen_typ)
    (fun t ->
      let c = clone_typ t in
      Typ.equal t c && Typ.equal c t)

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map Affine_expr.dim (int_range 0 3);
        map Affine_expr.const (int_range (-8) 8);
      ]
  in
  let node a b =
    oneofl
      [
        Affine_expr.Add (a, b);
        Affine_expr.Mul (a, b);
        Affine_expr.Floor_div (a, b);
        Affine_expr.Mod (a, b);
      ]
  in
  let* a = leaf and* b = leaf and* c = leaf in
  let* ab = node a b in
  oneof [ leaf; return ab; node ab c ]

let rec clone_expr = function
  | Affine_expr.Dim i -> Affine_expr.Dim i
  | Affine_expr.Sym i -> Affine_expr.Sym i
  | Affine_expr.Const c -> Affine_expr.Const c
  | Affine_expr.Add (a, b) -> Affine_expr.Add (clone_expr a, clone_expr b)
  | Affine_expr.Mul (a, b) -> Affine_expr.Mul (clone_expr a, clone_expr b)
  | Affine_expr.Floor_div (a, b) ->
      Affine_expr.Floor_div (clone_expr a, clone_expr b)
  | Affine_expr.Mod (a, b) -> Affine_expr.Mod (clone_expr a, clone_expr b)

let prop_expr_clone_equal =
  QCheck.Test.make ~name:"exprs equal their node-disjoint clones" ~count:200
    (QCheck.make ~print:Affine_expr.to_string gen_expr)
    (fun e ->
      let c = clone_expr e in
      Affine_expr.equal e c && Affine_expr.structural_equal e c)

let prop_map_clone_equal =
  QCheck.Test.make ~name:"maps equal their node-disjoint clones" ~count:200
    (QCheck.make
       ~print:(fun es ->
         String.concat ", " (List.map Affine_expr.to_string es))
       QCheck.Gen.(list_size (int_range 1 3) gen_expr))
    (fun exprs ->
      let a = Affine_map.make ~n_dims:4 exprs
      and b = Affine_map.make ~n_dims:4 (List.map clone_expr exprs) in
      a != b && Affine_map.equal a b && Affine_map.equal b a)

(* ---- two parses of one text give equal values ----------------------- *)

let test_parse_roundtrip_equal_values () =
  let m1 = Met.Emit_affine.translate (W.gemm ~ni:6 ~nj:5 ~nk:4 ()) in
  let text = Printer.op_to_string m1 in
  let p1 = Parser.parse_module text and p2 = Parser.parse_module text in
  let collect root =
    let types = ref [] and attrs = ref [] in
    Core.walk root (fun op ->
        Array.iter (fun (v : Core.value) -> types := v.v_typ :: !types)
          op.o_results;
        List.iter (fun (_, a) -> attrs := a :: !attrs) op.o_attrs);
    (!types, !attrs)
  in
  let t1, a1 = collect p1 and t2, a2 = collect p2 in
  Alcotest.(check bool) "modules have types" true (t1 <> []);
  Alcotest.(check int) "as many types" (List.length t1) (List.length t2);
  Alcotest.(check int) "as many attrs" (List.length a1) (List.length a2);
  List.iter2
    (fun x y ->
      if not (Typ.equal x y) then
        Alcotest.failf "type %s parsed to unequal values" (Typ.to_string x))
    t1 t2;
  List.iter2
    (fun x y ->
      if not (Attr.equal x y) then
        Alcotest.failf "attr %s parsed to unequal values" (Attr.to_string x))
    a1 a2

(* ---- signed zeros -------------------------------------------------- *)

let test_float_zero_signs_print_apart () =
  (* [-0.] and [0.] are IEEE-equal but print differently (and are
     unequal attributes), so each keeps its own printing through the IR. *)
  Alcotest.(check string) "+0. prints as before" "0x0p+0"
    (Attr.to_string (Attr.Float 0.0));
  Alcotest.(check string) "-0. prints as before" "-0x0p+0"
    (Attr.to_string (Attr.Float (-0.0)))

let test_attr_list_equal_lengths () =
  let open Attr in
  Alcotest.(check bool) "equal lists" true
    (equal (List [ Int 1; Str "x" ]) (List [ Int 1; Str "x" ]));
  Alcotest.(check bool) "prefix is not equal" false
    (equal (List [ Int 1 ]) (List [ Int 1; Int 2 ]));
  Alcotest.(check bool) "suffix is not equal" false
    (equal (List [ Int 1; Int 2 ]) (List [ Int 2 ]));
  Alcotest.(check bool) "nested lengths" false
    (equal
       (List [ List [ Int 1; Int 2 ] ])
       (List [ List [ Int 1 ] ]))

(* ---- compiled matcher automaton ------------------------------------- *)

let nop_pattern ~name ?benefit ?roots ?prefix () =
  Rewriter.pattern ~name ?benefit ?roots ?prefix (fun _ _ -> false)

let names ps = List.map (fun p -> p.Rewriter.p_name) ps

let test_prefix_operand_pruning () =
  let pa =
    nop_pattern ~name:"intern-test-binary" ~benefit:2
      ~roots:(Rewriter.Roots [ "test.op" ])
      ~prefix:(Rewriter.prefix ~operands:2 ())
      ()
  in
  let pb =
    nop_pattern ~name:"intern-test-anyarity"
      ~roots:(Rewriter.Roots [ "test.op" ])
      ()
  in
  let fz = Rewriter.freeze [ pb; pa ] in
  let v = Core.create_op ~result_types:[ Typ.F32 ] "test.const" in
  let unary = Core.create_op ~operands:[ Core.result v 0 ] "test.op" in
  let binary =
    Core.create_op
      ~operands:[ Core.result v 0; Core.result v 0 ]
      "test.op"
  in
  Alcotest.(check (list string))
    "unary op prunes the binary-only pattern"
    [ "intern-test-anyarity" ]
    (names (Rewriter.Frozen.candidates_for fz unary));
  Alcotest.(check (list string))
    "binary op keeps both, benefit first"
    [ "intern-test-binary"; "intern-test-anyarity" ]
    (names (Rewriter.Frozen.candidates_for fz binary));
  Alcotest.(check (list string))
    "name-only view is prefix-blind"
    [ "intern-test-binary"; "intern-test-anyarity" ]
    (names (Rewriter.Frozen.candidates fz "test.op"));
  (* relax forgets prefixes and roots. *)
  let rel = Rewriter.Frozen.relax fz in
  Alcotest.(check (list string))
    "relaxed dispatch attempts everything"
    [ "intern-test-binary"; "intern-test-anyarity" ]
    (names (Rewriter.Frozen.candidates_for rel unary))

let test_prefix_nest_depth_pruning () =
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let func = List.hd (Core.ops_of_block (Core.module_block m)) in
  let top = List.hd (Affine.Loops.top_level_loops func) in
  let depth = List.length (Affine.Loops.perfect_nest top) in
  Alcotest.(check int) "mm translates to a 3-deep nest" 3 depth;
  let at d =
    nop_pattern
      ~name:(Printf.sprintf "intern-test-depth%d" d)
      ~roots:(Rewriter.Roots [ "affine.for" ])
      ~prefix:
        (Rewriter.prefix ~nest_depth:d ~nest_ignore:[ "affine.yield" ] ())
      ()
  in
  let unconstrained =
    nop_pattern ~name:"intern-test-anydepth"
      ~roots:(Rewriter.Roots [ "affine.for" ])
      ()
  in
  let fz = Rewriter.freeze [ at 2; at 3; at 7; unconstrained ] in
  Alcotest.(check (list string))
    "only the exact depth and the unconstrained pattern survive"
    [ "intern-test-depth3"; "intern-test-anydepth" ]
    (names (Rewriter.Frozen.candidates_for fz top));
  (* The second loop of the nest roots a 2-deep perfect nest. *)
  let inner = List.nth (Affine.Loops.perfect_nest top) 1 in
  Alcotest.(check (list string))
    "inner loop selects the depth-2 branch"
    [ "intern-test-depth2"; "intern-test-anydepth" ]
    (names (Rewriter.Frozen.candidates_for fz inner))

let raising_set () =
  Transforms.Tactics.all ()
  @ Transforms.Canonicalize.patterns ()
  @ [ Transforms.Dce.pattern () ]

let test_compiled_matches_relaxed () =
  (* The compiled automaton must be pure pruning: byte-identical IR and
     rewrite counts vs relaxed (unindexed, prefix-less) dispatch, with
     fewer match attempts. *)
  let run fz src =
    let m = Met.Emit_affine.translate src in
    let attempts0, rewrites0 = Rewriter.counter_totals () in
    let n = Rewriter.apply_greedily m fz in
    let attempts1, rewrites1 = Rewriter.counter_totals () in
    (Printer.op_to_string m, n, attempts1 - attempts0, rewrites1 - rewrites0)
  in
  let compiled = Rewriter.freeze (raising_set ()) in
  let relaxed = Rewriter.Frozen.relax compiled in
  let stripped = Rewriter.Frozen.strip_prefixes compiled in
  List.iter
    (fun (name, src) ->
      let ir_c, n_c, att_c, rw_c = run compiled src in
      let ir_r, n_r, att_r, rw_r = run relaxed src in
      let ir_s, n_s, att_s, rw_s = run stripped src in
      Alcotest.(check string) (name ^ ": IR identical (relaxed)") ir_r ir_c;
      Alcotest.(check string) (name ^ ": IR identical (stripped)") ir_s ir_c;
      Alcotest.(check int) (name ^ ": applications identical") n_r n_c;
      Alcotest.(check int) (name ^ ": applications identical") n_s n_c;
      Alcotest.(check int) (name ^ ": rewrites identical") rw_r rw_c;
      Alcotest.(check int) (name ^ ": rewrites identical") rw_s rw_c;
      if not (att_c <= att_s && att_s <= att_r) then
        Alcotest.failf
          "%s: attempts not monotone: compiled %d, stripped %d, relaxed %d"
          name att_c att_s att_r)
    (W.tiny_suite ())

(* The combined raising set over the 16 Figure-9 kernels, driven by
   [apply_sweeps] (the raise-scf pass's driver, so each op is visited once
   per sweep) under compiled dispatch, root index only and the unindexed
   scan, at two levels: affine as MET emits it, and lowered to SCF (the
   full SCF -> affine -> linalg path). Each variant freezes its own set,
   so no matcher state is shared between the runs compared. *)
let test_dispatch_variants_agree_on_figure9 () =
  let build_set () =
    Transforms.Raise_scf.patterns ()
    @ [ Transforms.Dce.pattern () ]
    @ Transforms.Canonicalize.patterns ()
    @ Transforms.Tactics.all ()
  in
  Alcotest.(check int) "combined set size" 16 (List.length (build_set ()));
  let variants =
    [
      ("compiled", Fun.id);
      ("root-only", Rewriter.Frozen.strip_prefixes);
      ("unindexed", Rewriter.Frozen.relax);
    ]
  in
  let run level make_frozen name src =
    let m = Met.Emit_affine.translate src in
    if String.equal level "scf" then begin
      Core.walk m (fun op ->
          if Core.is_func op then Transforms.Lower_affine.run op);
      Verifier.verify m
    end;
    let fz = make_frozen (Rewriter.freeze (build_set ())) in
    let attempts0, _ = Rewriter.counter_totals () in
    let apps = Rewriter.apply_sweeps m fz in
    let attempts1, _ = Rewriter.counter_totals () in
    Alcotest.(check int)
      (Printf.sprintf "%s/%s: re-sweep applies nothing" level name)
      0
      (Rewriter.apply_sweeps m fz);
    (apps, attempts1 - attempts0, Printer.op_to_string m)
  in
  let check_level level expected =
    let totals = Array.make (List.length variants) 0 in
    List.iter
      (fun (name, src, _) ->
        let results =
          List.mapi
            (fun i (_, make_frozen) ->
              let apps, attempts, ir = run level make_frozen name src in
              totals.(i) <- totals.(i) + attempts;
              (apps, ir))
            variants
        in
        let apps_c, ir_c = List.hd results in
        List.iter2
          (fun (vname, _) (apps, ir) ->
            let what = Printf.sprintf "%s/%s (%s)" level name vname in
            Alcotest.(check int) (what ^ ": applications") apps_c apps;
            Alcotest.(check string) (what ^ ": printed IR") ir_c ir)
          variants results)
      (W.figure9_suite ());
    Alcotest.(check (list int))
      (level ^ ": compiled / root-only / unindexed attempts")
      expected (Array.to_list totals);
    let compiled = totals.(0) and root_only = totals.(1)
    and unindexed = totals.(2) in
    if unindexed < 5 * compiled then
      Alcotest.failf "%s: unindexed %d attempts, under 5x compiled's %d" level
        unindexed compiled;
    if compiled >= root_only then
      Alcotest.failf "%s: prefix trees saved nothing (%d vs %d root-only)"
        level compiled root_only
  in
  check_level "affine" [ 134; 269; 3_870 ];
  check_level "scf" [ 1_614; 4_494; 28_204 ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_typ_clone_equal; prop_expr_clone_equal; prop_map_clone_equal ]
  @ [
      Alcotest.test_case "parse round-trip gives equal values" `Quick
        test_parse_roundtrip_equal_values;
      Alcotest.test_case "-0.0 and 0.0 print apart" `Quick
        test_float_zero_signs_print_apart;
      Alcotest.test_case "Attr.equal list lengths" `Quick
        test_attr_list_equal_lengths;
      Alcotest.test_case "prefix automaton: operand arity" `Quick
        test_prefix_operand_pruning;
      Alcotest.test_case "prefix automaton: nest depth" `Quick
        test_prefix_nest_depth_pruning;
      Alcotest.test_case "compiled dispatch = relaxed dispatch" `Quick
        test_compiled_matches_relaxed;
      Alcotest.test_case "dispatch variants agree on the Figure-9 suite"
        `Quick test_dispatch_variants_agree_on_figure9;
    ]
