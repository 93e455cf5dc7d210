(* Hash-consing (ISSUE 8): canonical-node guarantees of the interners
   behind Typ/Attr/Affine_expr/Affine_map, the construction chokepoints
   in Core that make all IR carry canonical nodes, the 4-domain safety of
   the shared tables, and the compiled matcher automaton's conservative
   pruning. *)

open Ir
module W = Workloads.Polybench

(* ---- structural equality implies physical equality ----------------- *)

(* Generators produce values through the plain constructors (no interning),
   and [clone] rebuilds a structurally equal value sharing no nodes, so a
   physical match after [intern] can only come from the table. *)
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

let prop_typ_intern =
  QCheck.Test.make ~name:"equal-by-structure types intern to one node"
    ~count:200
    (QCheck.make ~print:Typ.to_string gen_typ)
    (fun t ->
      let a = Typ.intern t and b = Typ.intern (clone_typ t) in
      a == b && Typ.equal a t)

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

let prop_expr_intern =
  QCheck.Test.make ~name:"equal-by-structure exprs intern to one node"
    ~count:200
    (QCheck.make ~print:Affine_expr.to_string gen_expr)
    (fun e ->
      let a = Affine_expr.intern e
      and b = Affine_expr.intern (clone_expr e) in
      a == b && Affine_expr.equal a e)

let prop_map_intern =
  QCheck.Test.make
    ~name:"equal-by-structure maps are one node straight out of make"
    ~count:200
    (QCheck.make
       ~print:(fun es ->
         String.concat ", " (List.map Affine_expr.to_string es))
       QCheck.Gen.(list_size (int_range 1 3) gen_expr))
    (fun exprs ->
      (* [make] interns, so two independent constructions of structurally
         equal maps must already be physically equal. *)
      let a = Affine_map.make ~n_dims:4 exprs
      and b = Affine_map.make ~n_dims:4 (List.map clone_expr exprs) in
      a == b)

(* ---- parse/print round-trips land on the same nodes ----------------- *)

let test_parse_roundtrip_shares_nodes () =
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
  List.iter2
    (fun x y ->
      if x != y then
        Alcotest.failf "type %s parsed to two distinct nodes"
          (Typ.to_string x))
    t1 t2;
  List.iter2
    (fun x y ->
      if x != y then
        Alcotest.failf "attr %s parsed to two distinct nodes"
          (Attr.to_string x))
    a1 a2;
  (* And the canonical node is what [intern] answers for a fresh copy. *)
  List.iter
    (fun t ->
      if Typ.intern (clone_typ t) != t then
        Alcotest.failf "parsed type %s is not canonical" (Typ.to_string t))
    t1

(* ---- float corner cases in the attribute interner ------------------- *)

let test_float_zero_signs_stay_distinct () =
  let pos = Attr.intern (Attr.Float 0.0)
  and neg = Attr.intern (Attr.Float (-0.0)) in
  (* [-0.] and [0.] print differently, so merging them would change
     emitted IR; the interner keys floats bitwise. *)
  Alcotest.(check bool) "distinct canonical nodes" true (pos != neg);
  Alcotest.(check string) "+0. prints as before" "0x0p+0"
    (Attr.to_string pos);
  Alcotest.(check string) "-0. prints as before" "-0x0p+0"
    (Attr.to_string neg)

let test_nan_interns_once () =
  let a = Attr.intern (Attr.Float Float.nan)
  and b = Attr.intern (Attr.Float Float.nan) in
  (* Same NaN payload -> one node (IEEE [=] never matches NaN, so a
     value-keyed table would grow a node per probe). Physical equality
     then makes [Attr.equal] true for the shared node — NaN attribute
     equality is effectively bitwise once interned, as in MLIR — while
     structurally distinct NaN boxes that never met the interner still
     compare false. *)
  Alcotest.(check bool) "one canonical NaN node" true (a == b);
  Alcotest.(check bool) "canonical NaN node equals itself" true
    (Attr.equal a b);
  Alcotest.(check bool) "un-interned NaN boxes keep IEEE semantics" false
    (Attr.equal (Attr.Float Float.nan) (Attr.Float Float.nan))

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

(* ---- 4-domain stress ------------------------------------------------ *)

let test_four_domain_stress () =
  (* Every domain interns fresh structural copies of a shared battery of
     types and maps, racing the lock-free hit path against concurrent
     inserts; all domains must agree on one canonical node per spec, and
     re-interning afterwards must not grow the tables (no duplicate or
     torn entries). Unique-per-domain keys force genuinely concurrent
     inserts alongside the shared probes. *)
  let specs =
    [|
      (fun () -> Typ.Mem_ref ([ Typ.Static 64; Typ.Static 64 ], Typ.F64));
      (fun () ->
        Typ.Mem_ref ([ Typ.Dynamic; Typ.Static 8; Typ.Static 4 ], Typ.F32));
      (fun () -> Typ.Fun ([ Typ.Index; Typ.F64 ], [ Typ.F64 ]));
      (fun () ->
        Typ.Mem_ref
          ( [ Typ.Static 2; Typ.Static 3; Typ.Static 4; Typ.Static 5 ],
            Typ.I32 ));
    |]
  in
  let iterations = 2_000 in
  let burst d =
    let canon = Array.map (fun spec -> Typ.intern (spec ())) specs in
    for i = 1 to iterations do
      Array.iteri
        (fun s spec ->
          let t = Typ.intern (spec ()) in
          if t != canon.(s) then
            Alcotest.failf "domain %d saw two canonical nodes for %s" d
              (Typ.to_string t))
        specs;
      (* Distinct per-domain-per-iteration keys: concurrent inserts. *)
      ignore
        (Typ.intern
           (Typ.Mem_ref ([ Typ.Static ((d * iterations) + i) ], Typ.F32)));
      ignore
        (Affine_map.make ~n_dims:2
           [ Affine_expr.dim (i land 1); Affine_expr.dim ((i + 1) land 1) ])
    done;
    canon
  in
  let others = List.init 3 (fun d -> Domain.spawn (fun () -> burst (d + 1))) in
  let mine = burst 0 in
  let all = mine :: List.map Domain.join others in
  List.iteri
    (fun d canon ->
      Array.iteri
        (fun s t ->
          if t != mine.(s) then
            Alcotest.failf "domain %d disagrees on canonical node %d" d s)
        canon)
    all;
  (* Tables are settled: re-interning the whole battery hits every time. *)
  let before = (Typ.interner_stats ()).Support.Intern.size in
  Array.iter (fun spec -> ignore (Typ.intern (spec ()))) specs;
  for d = 0 to 3 do
    for i = 1 to iterations do
      ignore
        (Typ.intern
           (Typ.Mem_ref ([ Typ.Static ((d * iterations) + i) ], Typ.F32)))
    done
  done;
  let after = (Typ.interner_stats ()).Support.Intern.size in
  Alcotest.(check int) "no duplicates slipped into the table" before after

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

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_typ_intern; prop_expr_intern; prop_map_intern ]
  @ [
      Alcotest.test_case "parse round-trip shares canonical nodes" `Quick
        test_parse_roundtrip_shares_nodes;
      Alcotest.test_case "-0.0 and 0.0 stay distinct nodes" `Quick
        test_float_zero_signs_stay_distinct;
      Alcotest.test_case "NaN attrs intern to one node" `Quick
        test_nan_interns_once;
      Alcotest.test_case "Attr.equal list lengths" `Quick
        test_attr_list_equal_lengths;
      Alcotest.test_case "4-domain interning stress" `Quick
        test_four_domain_stress;
      Alcotest.test_case "prefix automaton: operand arity" `Quick
        test_prefix_operand_pruning;
      Alcotest.test_case "prefix automaton: nest depth" `Quick
        test_prefix_nest_depth_pruning;
      Alcotest.test_case "compiled dispatch = relaxed dispatch" `Quick
        test_compiled_matches_relaxed;
    ]
