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
      (* [m2] is structurally equal to [m], which [Interp.Eval.equivalent]
         would run once; run each reading on its own engine instead. *)
      if
        not
          (Ref_interp.all_same_bits
             (Ref_interp.run_on_random m fname ~seed:21)
             (Interp.Eval.run_on_random m2 fname ~seed:21))
      then
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

(* A rejected input fails with a Diag.Error at a source position, which
   [Diag.to_string] prints as a "FILE:LINE:COL: " prefix. *)
let located_error src =
  match Parser.parse_module ~file:"t.mlir" src with
  | _ -> Alcotest.failf "expected parse error for %S" src
  | exception Support.Diag.Error (loc, msg) ->
      let text = Support.Diag.to_string loc msg in
      let prefix = Printf.sprintf "t.mlir:%d:%d: " loc.line loc.col in
      if loc.line < 1 || not (String.starts_with ~prefix text) then
        Alcotest.failf "%S: error without a position: %s" src text;
      text

let contract_with map =
  Printf.sprintf
    {|builtin.module {
  func.func @c(%%A: memref<4x6xf32>, %%B: memref<6x3xf32>, %%C: memref<4x3xf32>) {
    linalg.contract indexing_maps = [%s, affine_map<(d0, d1, d2) -> (d2, d1)>, affine_map<(d0, d1, d2) -> (d0, d1)>] ins(%%A, %%B : memref<4x6xf32>, memref<6x3xf32>) outs(%%C : memref<4x3xf32>)
    func.return
  }
}|}
    map

let in_func body =
  Printf.sprintf
    "builtin.module {\n  func.func @f(%%A: memref<4xf32>) {\n%s\n    func.return\n  }\n}"
    body

(* Products and divisions stay affine: a '*' with no constant side and a
   floordiv or mod whose divisor is not a non-zero constant fail at the
   operator. They once parsed, verified and failed only when run. *)
let test_non_affine_maps_rejected () =
  let subscript sub =
    in_func
      (Printf.sprintf
         "    affine.for %%i = 0 to 4 {\n      affine.for %%j = 0 to 4 {\n        \
          %%x = affine.load %%A[%s] : memref<4xf32>\n      }\n    }"
         sub)
  in
  List.iter
    (fun (src, want) ->
      Alcotest.(check string) want want (located_error src))
    [
      ( subscript "%i floordiv %j",
        "t.mlir:5:32: non-affine floordiv: the divisor is not a constant" );
      ( subscript "%i mod %j",
        "t.mlir:5:32: non-affine mod: the divisor is not a constant" );
      ( subscript "%i * %j",
        "t.mlir:5:32: non-affine product: neither side of '*' is a constant" );
      (subscript "%i floordiv (2 - 2)", "t.mlir:5:32: floordiv by zero");
      ( contract_with "affine_map<(d0, d1, d2) -> (d0 * d1, d2)>",
        "t.mlir:3:69: non-affine product: neither side of '*' is a constant" );
      (contract_with "affine_map<(d0, d1, d2) -> (d0 mod 0, d2)>",
       "t.mlir:3:69: mod by zero");
    ];
  List.iter
    (fun sub -> ignore (Parser.parse_module (subscript sub)))
    [ "%i floordiv 2"; "%i * 2 + %j mod -3"; "(%i + 1) * 2 - %j"; "%i * (4 - 2)" ]

let test_parse_errors () =
  let expect_fail src = ignore (located_error src) in
  expect_fail "builtin.module {";
  expect_fail "builtin.module { func.func gemm() { } }";
  expect_fail
    "builtin.module { func.func @f() { %0 = arith.addf %x, %y : f32 } }";
  expect_fail
    "builtin.module { func.func @f(%A: memref<2xf32>) { affine.store %A, \
     %A[0] : memref<2xf32> } }";
  let expect_at ~line ~col src =
    let text = located_error src in
    let prefix = Printf.sprintf "t.mlir:%d:%d: " line col in
    if not (String.starts_with ~prefix text) then
      Alcotest.failf "expected an error at %s, got %s" prefix text
  in
  (* A '-' before a map variable, and an integer past max_int, once
     escaped as Failure "int_of_string". *)
  expect_at ~line:3 ~col:67
    (contract_with "affine_map<(d0, d1, d2) -> (-d0, d2)>");
  expect_at ~line:3 ~col:71
    (contract_with
       "affine_map<(d0, d1, d2) -> (d0 + 99999999999999999999, d2)>");
  expect_at ~line:3 ~col:70
    (contract_with "affine_map<(d0, d1, d2) -> (d0, d3)>");
  (* An affine.load of a non-memref once escaped from Typ.memref_elem. *)
  expect_at ~line:4 ~col:24
    (in_func
       "    affine.for %i = 0 to 4 {\n      %x = affine.load %i[%i] : \
        memref<4xf32>\n    }");
  (* Errors once raised without a position. *)
  expect_at ~line:1 ~col:163
    "builtin.module { func.func @f(%A: memref<2x3xf32>, %B: \
     memref<3x2xf32>) { linalg.transpose ins(%A : memref<2x3xf32>) outs(%B \
     : memref<3x2xf32>) permutation = [1, x] } }";
  expect_at ~line:3 ~col:14 (in_func "    %x, %y = arith.constant 1 : index");
  expect_at ~line:3 ~col:22 (in_func {|    "foo.bar"() {k = "\q"} : () -> ()|});
  (* Verifier errors: a value used outside the region that defines it,
     a dialect hook's own check, and an attribute the hook needs. *)
  expect_at ~line:6 ~col:5
    (in_func
       "    affine.for %i = 0 to 4 {\n      %x = affine.load %A[%i] : \
        memref<4xf32>\n    }\n    %y = arith.addf %x, %x : f32");
  expect_at ~line:4 ~col:5
    (in_func
       "    %x = arith.constant 1 : index\n    %y = arith.addf %x, %x : index");
  expect_at ~line:3 ~col:5
    (in_func {|    %x = "affine.load"(%A) : (memref<4xf32>) -> (f32)|});
  (* A contraction whose operands disagree on a dim: the interpreter once
     met it as an uncaught Invalid_argument, and --lower-linalg lowered
     the contract over the smaller extent. *)
  let mismatched op =
    Printf.sprintf
      "builtin.module {\n\
      \  func.func @g(%%A: memref<4x6xf32>, %%B: memref<5x3xf32>, %%C: \
       memref<4x3xf32>) {\n\
      \    %s\n\
      \    func.return\n\
      \  }\n\
       }"
      op
  in
  List.iter
    (fun op -> expect_at ~line:3 ~col:5 (mismatched op))
    [
      "blas.sgemm %A, %B, %C : memref<4x6xf32>, memref<5x3xf32>, \
       memref<4x3xf32>";
      "affine.matmul %A, %B, %C : memref<4x6xf32>, memref<5x3xf32>, \
       memref<4x3xf32>";
      "linalg.contract indexing_maps = [affine_map<(d0, d1, d2) -> (d0, \
       d2)>, affine_map<(d0, d1, d2) -> (d2, d1)>, affine_map<(d0, d1, d2) \
       -> (d0, d1)>] ins(%A, %B : memref<4x6xf32>, memref<5x3xf32>) \
       outs(%C : memref<4x3xf32>)";
    ]

(* Generic-form attributes in every form the printer writes. *)
let test_generic_attr_forms () =
  let m =
    Parser.parse_module
      {|builtin.module {
  "foo.bar"() {a = -3, b = true, c = false, d = unit, e = "q\"\\\n", f = nan, g = -infinity, h = f32, i = memref<2x?xf32>, j = [1, -2], k = [], l = {0, {1, 2}}, m = [affine_map<(d0)[s0] -> (d0 - s0)>, 3], n = -0x1.8p+1, o = -4611686018427387904} : () -> ()
}|}
  in
  let op = List.hd (Core.ops_of_block (Core.module_block m)) in
  let check name expected =
    Alcotest.(check string) name (Attr.to_string expected)
      (Attr.to_string (Core.attr op name))
  in
  check "a" (Attr.Int (-3));
  check "b" (Attr.Bool true);
  check "c" (Attr.Bool false);
  check "d" Attr.Unit;
  check "e" (Attr.Str "q\"\\\n");
  check "f" (Attr.Float Float.nan);
  check "g" (Attr.Float Float.neg_infinity);
  check "h" (Attr.Type Typ.F32);
  check "i" (Attr.Type (Typ.Mem_ref ([ Typ.Static 2; Typ.Dynamic ], Typ.F32)));
  check "j" (Attr.Ints [ 1; -2 ]);
  check "k" (Attr.Ints []);
  check "l" (Attr.Grouping [ [ 0 ]; [ 1; 2 ] ]);
  check "m"
    (Attr.List
       [
         Attr.Map
           (Affine_map.make ~n_dims:1 ~n_syms:1
              [ Affine_expr.(Add (Dim 0, Mul (Const (-1), Sym 0))) ]);
         Attr.Int 3;
       ]);
  check "n" (Attr.Float (-3.));
  check "o" (Attr.Int min_int)

(* ---- generic attributes round-trip ------------------------------------- *)

(* Sums of terms over the header's variables, divisors from 1: a floordiv
   or mod by 1 folds away inside the sum, which [Affine_expr.simplify]
   must then collect for the map to print stably. *)
let gen_map =
  let open QCheck.Gen in
  let* n_dims = int_range 1 3 in
  let* n_syms = int_bound 2 in
  let module E = Affine_expr in
  let var =
    oneof
      (map E.dim (int_bound (n_dims - 1))
      :: (if n_syms = 0 then [] else [ map E.sym (int_bound (n_syms - 1)) ]))
  in
  let term =
    oneof
      [
        var;
        map E.const (int_range (-9) 9);
        map2 (fun v c -> E.Mul (v, E.Const c)) var (int_range (-4) 4);
        map3
          (fun a b c -> E.Floor_div (E.Add (a, b), E.Const c))
          var var (int_range 1 5);
        map2 (fun v c -> E.Mod (v, E.Const c)) var (int_range 1 5);
      ]
  in
  let expr =
    map
      (fun ts -> List.fold_left (fun a t -> E.Add (a, t)) (List.hd ts) (List.tl ts))
      (list_size (int_range 1 3) term)
  in
  map (Affine_map.make ~n_dims ~n_syms) (list_size (int_range 1 3) expr)

(* Every Attr.t kind. The text has no function types. *)
let gen_attr =
  let open QCheck.Gen in
  let int = oneof [ small_signed_int; int; return min_int ] in
  let ints = list_size (int_bound 4) int in
  let scalar = oneofl Typ.[ F32; F64; I1; I32; I64; Index ] in
  let dim =
    oneof [ return Typ.Dynamic; map (fun d -> Typ.Static d) small_nat ]
  in
  let memref elem =
    map2 (fun ds e -> Typ.Mem_ref (ds, e)) (list_size (int_bound 3) dim) elem
  in
  let typ = oneof [ scalar; memref scalar; memref (memref scalar) ] in
  fix
    (fun self depth ->
      let leaf =
        oneof
          [
            return Attr.Unit;
            map (fun b -> Attr.Bool b) bool;
            map (fun i -> Attr.Int i) int;
            map (fun b -> Attr.Float (Int64.float_of_bits b)) ui64;
            map (fun s -> Attr.Str s) (string_size ~gen:char (int_bound 12));
            map (fun t -> Attr.Type t) typ;
            map (fun is -> Attr.Ints is) ints;
            map (fun m -> Attr.Map m) gen_map;
            map (fun g -> Attr.Grouping g) (list_size (int_bound 3) ints);
          ]
      in
      if depth = 0 then leaf
      else
        frequency
          [
            (4, leaf);
            ( 1,
              map
                (fun l -> Attr.List l)
                (list_size (int_bound 3) (self (depth - 1))) );
          ])
    2

let generic_module attrs =
  let m = Core.create_module () in
  let attrs = List.mapi (fun i a -> (Printf.sprintf "a%d" i, a)) attrs in
  Core.append_op (Core.module_block m) (Core.create_op ~attrs "test.attrs");
  m

let prop_generic_attrs_roundtrip =
  QCheck.Test.make ~name:"generic attributes print, parse and print the same"
    ~count:300
    (QCheck.make
       ~print:(fun attrs -> Printer.op_to_string (generic_module attrs))
       QCheck.Gen.(list_size (int_range 1 6) gen_attr))
    (fun attrs ->
      let printed = Printer.op_to_string (generic_module attrs) in
      match Parser.parse_module printed with
      | m -> String.equal printed (Printer.op_to_string m)
      | exception Support.Diag.Error (loc, msg) ->
          QCheck.Test.fail_reportf "rejected: %s"
            (Support.Diag.to_string loc msg))

(* ---- mutation fuzzer ---------------------------------------------------- *)

(* A contract that reads a 2x3 operand through floordiv and mod. *)
let floordiv_mod_contract =
  {|builtin.module {
  func.func @c(%A: memref<2x3xf32>, %B: memref<6xf32>, %C: memref<6xf32>) {
    linalg.contract indexing_maps = [affine_map<(d0) -> (d0 floordiv 3, d0 mod 3)>, affine_map<(d0) -> (d0)>, affine_map<(d0) -> (d0)>] ins(%A, %B : memref<2x3xf32>, memref<6xf32>) outs(%C : memref<6xf32>)
    func.return
  }
}|}

(* Seeds: the printed tiny suite under every built-in config, a contract
   whose maps use floordiv and mod, and a transform script. Every seed
   must parse and verify, or none of its mutations could be accepted. *)
let fuzz_seeds =
  lazy
    (let module P = Mlt.Pipeline in
     let printed =
       List.concat_map
         (fun (_, src) ->
           List.map
             (fun c ->
               Printer.op_to_string (P.prepare_schedule (P.Config c) src))
             P.all_configs)
         (W.tiny_suite ())
     in
     let script =
       Transform.Script.print
         (Transform.Script.of_steps
            (List.concat_map P.steps_of_config P.all_configs))
     in
     let seeds = floordiv_mod_contract :: script :: printed in
     List.iter
       (fun seed ->
         match Parser.parse_module seed with
         | _ -> ()
         | exception Support.Diag.Error (loc, msg) ->
             Alcotest.failf "fuzz seed does not verify: %s\n%s"
               (Support.Diag.to_string loc msg) seed)
       seeds;
     Array.of_list seeds)

(* 1-3 byte edits (replace, delete, insert), each byte random, from the
   IR's punctuation and letters, or copied from the seed. *)
let mutate rand seed =
  let alphabet = "-%@()[]{}<>,:=+*\"0123456789 \n\tdsx.abcfimnoprt\\" in
  let s = ref seed in
  for _ = 1 to 1 + Random.State.int rand 3 do
    let cur = !s in
    let n = String.length cur in
    let byte =
      match Random.State.int rand 3 with
      | 0 -> Char.chr (Random.State.int rand 256)
      | 1 -> alphabet.[Random.State.int rand (String.length alphabet)]
      | _ -> cur.[Random.State.int rand n]
    in
    let pos = Random.State.int rand n in
    s :=
      match Random.State.int rand 3 with
      | 0 -> String.mapi (fun i c -> if i = pos then byte else c) cur
      | 1 -> String.sub cur 0 pos ^ String.sub cur (pos + 1) (n - pos - 1)
      | _ ->
          String.sub cur 0 pos ^ String.make 1 byte
          ^ String.sub cur pos (n - pos)
  done;
  !s

let prop_mutated_ir_parses_or_locates =
  QCheck.Test.make ~name:"mutated IR parses or fails at a position"
    ~count:15000
    (QCheck.make ~print:Fun.id (fun rand ->
         let seeds = Lazy.force fuzz_seeds in
         mutate rand seeds.(Random.State.int rand (Array.length seeds))))
    (fun src ->
      match Parser.parse_module ~file:"fuzz.mlir" src with
      | _ -> true
      | exception Support.Diag.Error (loc, msg) ->
          Support.Loc.is_known loc
          || QCheck.Test.fail_reportf "unlocated: %s" msg)

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

let test_float_constants_roundtrip () =
  (* Each constant prints as text that reads back to the same bits, and
     the printed module is a fixed point. *)
  let src =
    {|builtin.module {
  func.func @k() {
    %a = arith.constant 0.123456789 : f32
    %b = arith.constant 1e400 : f64
    %c = arith.constant -1e400 : f64
    %d = arith.constant -0.0 : f64
    %e = arith.constant 1e-300 : f64
    %f = arith.constant 0.1 : f64
    %g = arith.constant 5.3 : f32
    func.return
  }
}|}
  in
  let expected =
    [ 0.123456789; Float.infinity; Float.neg_infinity; -0.0; 1e-300; 0.1; 5.3 ]
  in
  let constants m =
    let f = Option.get (Core.find_func m "k") in
    List.filter_map
      (fun (op : Core.op) ->
        match Core.find_attr op "value" with
        | Some (Attr.Float x) -> Some (Int64.bits_of_float x)
        | _ -> None)
      (Core.ops_of_block (Core.func_entry f))
  in
  let m = Parser.parse_module src in
  let printed = Printer.op_to_string m in
  let m2 = Parser.parse_module printed in
  Alcotest.(check (list int64)) "bits after one round trip"
    (List.map Int64.bits_of_float expected) (constants m2);
  Alcotest.(check string) "printed text is a fixed point" printed
    (Printer.op_to_string m2);
  List.iter
    (fun text ->
      Alcotest.(check bool) ("prints " ^ text) true
        (Astring_contains.contains printed ("arith.constant " ^ text ^ " :")))
    [ "0.123456789"; "infinity"; "-infinity"; "-0.0"; "1e-300"; "0.1"; "5.3" ]

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
    Alcotest.test_case "non-affine products and divisors are located errors"
      `Quick test_non_affine_maps_rejected;
    Alcotest.test_case "generic attribute forms" `Quick test_generic_attr_forms;
    Alcotest.test_case "float constants round-trip as text" `Quick
      test_float_constants_roundtrip;
    QCheck_alcotest.to_alcotest prop_generic_attrs_roundtrip;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 29 |])
      prop_mutated_ir_parses_or_locates;
    Alcotest.test_case "parse hand-written IR" `Quick test_parse_hand_written;
  ]
