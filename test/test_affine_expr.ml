(* Unit and property tests for affine expressions and maps. *)

module E = Ir.Affine_expr
module M = Ir.Affine_map

let check_expr msg expected actual =
  Alcotest.(check string) msg expected (E.to_string (E.simplify actual))

let test_simplify_constants () =
  check_expr "1+2" "3" E.(add (const 1) (const 2));
  check_expr "2*3" "6" E.(mul (const 2) (const 3));
  check_expr "7 fdiv 2" "3" E.(floor_div (const 7) (const 2));
  check_expr "-7 fdiv 2" "-4" E.(floor_div (const (-7)) (const 2));
  check_expr "-7 mod 2" "1" E.(mod_ (const (-7)) (const 2));
  check_expr "0*d0" "0" E.(mul (const 0) (dim 0));
  check_expr "d0*1" "d0" E.(mul (dim 0) (const 1))

let test_simplify_linear () =
  check_expr "d0+d0" "2 * d0" E.(add (dim 0) (dim 0));
  check_expr "d0-d0" "0" E.(sub (dim 0) (dim 0));
  check_expr "2*(d0+d1)" "2 * d0 + 2 * d1" E.(mul (const 2) (add (dim 0) (dim 1)));
  check_expr "(d0+1)+(d0+2)" "2 * d0 + 3"
    E.(add (add (dim 0) (const 1)) (add (dim 0) (const 2)))

let test_eval () =
  let e = E.(add (mul (const 2) (dim 0)) (add (dim 1) (const 5))) in
  Alcotest.(check int) "2*3+4+5" 15 (E.eval ~dims:[| 3; 4 |] ~syms:[||] e);
  let fd = E.(floor_div (dim 0) (const 4)) in
  Alcotest.(check int) "floor(-5/4)" (-2) (E.eval ~dims:[| -5 |] ~syms:[||] fd);
  let md = E.(mod_ (dim 0) (const 4)) in
  Alcotest.(check int) "(-5) mod 4" 3 (E.eval ~dims:[| -5 |] ~syms:[||] md)

let test_floor_semantics_sign_grid () =
  (* floordiv rounds toward -inf and floormod carries the divisor's sign,
     for every sign combination — including negative divisors, which the
     pre-floor implementation got wrong. *)
  let grid = [ (7, 2, 3, 1); (-7, 2, -4, 1); (7, -2, -4, -1);
               (-7, -2, 3, -1); (6, 3, 2, 0); (-6, 3, -2, 0);
               (6, -3, -2, 0); (-6, -3, 2, 0) ] in
  List.iter
    (fun (x, y, q, r) ->
      Alcotest.(check int) (Printf.sprintf "floordiv %d %d" x y) q
        (E.floordiv x y);
      Alcotest.(check int) (Printf.sprintf "floormod %d %d" x y) r
        (E.floormod x y);
      Alcotest.(check int) "identity x = y*q + r" x ((y * q) + r);
      (* Constant folding and eval agree with the reference arithmetic. *)
      check_expr (Printf.sprintf "fold %d fdiv %d" x y) (string_of_int q)
        E.(floor_div (const x) (const y));
      check_expr (Printf.sprintf "fold %d mod %d" x y) (string_of_int r)
        E.(mod_ (const x) (const y));
      Alcotest.(check int) "eval fdiv" q
        (E.eval ~dims:[| x |] ~syms:[||] E.(Floor_div (Dim 0, Const y)));
      Alcotest.(check int) "eval mod" r
        (E.eval ~dims:[| x |] ~syms:[||] E.(Mod (Dim 0, Const y))))
    grid;
  (* mod by +-1 is identically zero. *)
  check_expr "d0 mod 1" "0" E.(mod_ (dim 0) (const 1));
  check_expr "d0 mod -1" "0" E.(mod_ (dim 0) (const (-1)));
  Alcotest.check_raises "fdiv by zero"
    (Invalid_argument "Affine_expr.floordiv: division by zero") (fun () ->
      ignore (E.floordiv 3 0));
  Alcotest.check_raises "mod by zero"
    (Invalid_argument "Affine_expr.floormod: modulo by zero") (fun () ->
      ignore (E.floormod 3 0))

let test_single_dim () =
  let check msg e expected =
    Alcotest.(check (option (triple int int int))) msg expected (E.is_single_dim e)
  in
  check "d0" (E.dim 0) (Some (1, 0, 0));
  check "2*d1+1" E.(add (mul (const 2) (dim 1)) (const 1)) (Some (2, 1, 1));
  check "d0+d1" E.(add (dim 0) (dim 1)) None;
  check "const" (E.const 3) None;
  check "d0 mod 2" E.(Mod (dim 0, const 2)) None

let test_used_dims () =
  let e = E.(add (mul (const 2) (dim 3)) (dim 1)) in
  Alcotest.(check (list int)) "dims" [ 1; 3 ] (E.used_dims e);
  Alcotest.(check int) "max_dim" 4 (E.max_dim e)

let test_map_eval_permutation () =
  let perm = M.permutation [| 2; 0; 1 |] in
  let r = M.eval perm ~dims:[| 10; 20; 30 |] () in
  Alcotest.(check (array int)) "apply" [| 30; 10; 20 |] r;
  let p = [| 2; 0; 1 |] in
  let q = M.inverse_permutation p in
  Array.iteri (fun i pi -> Alcotest.(check int) "inverse" i q.(pi)) p

let test_map_ranges () =
  Alcotest.check_raises "out of range dim"
    (Invalid_argument "Affine_map: dim d2 out of range (n_dims=2)")
    (fun () -> ignore (M.make ~n_dims:2 [ E.dim 2 ]))

(* Property: simplify is idempotent and preserves evaluation. *)
let arb_expr =
  let open QCheck in
  let leaf =
    Gen.oneof
      [
        Gen.map E.dim (Gen.int_bound 2);
        Gen.map E.const (Gen.int_range (-10) 10);
      ]
  in
  let gen =
    Gen.sized (fun n ->
        Gen.fix
          (fun self n ->
            if n <= 1 then leaf
            else
              Gen.oneof
                [
                  leaf;
                  Gen.map2 (fun a b -> E.Add (a, b)) (self (n / 2)) (self (n / 2));
                  Gen.map2 (fun a b -> E.Mul (a, b)) (self (n / 2)) (self (n / 2));
                  Gen.map2
                    (fun a d -> E.Floor_div (a, E.Const d))
                    (self (n - 1)) (Gen.oneofl [ 1; 3 ]);
                  Gen.map2
                    (fun a d -> E.Mod (a, E.Const d))
                    (self (n - 1)) (Gen.oneofl [ 1; 5 ]);
                ])
          (min n 12))
  in
  QCheck.make ~print:E.to_string gen

let prop_simplify_idempotent =
  (* Structurally: [E.equal] would simplify both sides again. *)
  QCheck.Test.make ~name:"simplify idempotent" ~count:500 arb_expr (fun e ->
      E.simplify (E.simplify e) = E.simplify e)

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:500
    (QCheck.pair arb_expr (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat))
    (fun (e, (a, b, c)) ->
      let dims = [| a; b; c |] in
      E.eval ~dims ~syms:[||] e = E.eval ~dims ~syms:[||] (E.simplify e))

let prop_linearize_agrees =
  QCheck.Test.make ~name:"linear form preserves evaluation" ~count:500
    (QCheck.pair arb_expr (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat))
    (fun (e, (a, b, c)) ->
      match E.linearize e with
      | None -> QCheck.assume_fail ()
      | Some l ->
          let dims = [| a; b; c |] in
          E.eval ~dims ~syms:[||] (E.of_linear l) = E.eval ~dims ~syms:[||] e)

(* ---- Affine.Stage ------------------------------------------------------ *)

(* Expressions [Affine.Stage] accepts, over dims 0-2, raw or simplified:
   sums of 1-6 terms, products by a constant on either side, floordiv and
   mod by non-zero constants of either sign, nested up to three deep. *)
let gen_stageable =
  let open QCheck.Gen in
  let k = int_range (-9) 9 in
  let divisor =
    map2 (fun neg d -> if neg then -d else d) bool (int_range 1 9)
  in
  let leaf = oneof [ map E.dim (int_bound 2); map E.const k ] in
  let rec expr depth =
    if depth = 0 then leaf
    else
      let sub = expr (depth - 1) in
      frequency
        [
          (1, leaf);
          ( 3,
            map
              (function
                | t :: ts -> List.fold_left (fun a t -> E.Add (a, t)) t ts
                | [] -> assert false)
              (list_size (int_range 1 6) sub) );
          (1, map2 (fun e c -> E.Mul (e, E.Const c)) sub k);
          (1, map2 (fun c e -> E.Mul (E.Const c, e)) k sub);
          (1, map2 (fun e d -> E.Floor_div (e, E.Const d)) sub divisor);
          (1, map2 (fun e d -> E.Mod (e, E.Const d)) sub divisor);
        ]
  in
  map2 (fun e simple -> if simple then E.simplify e else e) (expr 3) bool

(* A staged expression reads dim [d] from [frame.(slots.(d))], wherever
   the slots are: scattered, repeated or in order. *)
let prop_stage_agrees_with_eval =
  let open QCheck in
  let frame = Gen.array_repeat 8 (Gen.int_range (-60) 60) in
  let slots = Gen.array_repeat 3 (Gen.int_bound 7) in
  Test.make ~name:"Stage agrees with eval at any frame slots" ~count:1000
    (make
       ~print:(fun (e, slots, frame) ->
         Printf.sprintf "%s over slots [%s] of [%s]" (E.to_string e)
           (String.concat "; " (Array.to_list (Array.map string_of_int slots)))
           (String.concat "; " (Array.to_list (Array.map string_of_int frame))))
       (Gen.triple gen_stageable slots frame))
    (fun (e, slots, frame) ->
      let staged =
        Affine.Stage.expr ~who:"test" ~loc:Support.Loc.unknown ~what:"e" slots
          e
      in
      staged frame
      = E.eval ~dims:(Array.map (fun s -> frame.(s)) slots) ~syms:[||] e)

(* What [Affine.Stage] rejects, in in-memory IR: each edit of a small
   kernel must fail [Interp.Compile.compile_func] and
   [Machine.Perf.time_func] alike, located at the edited op and prefixed
   by that engine's name. *)
let stage_rejects =
  let map ?(n_syms = 0) n_dims exprs =
    Ir.Attr.Map (M.make ~n_dims ~n_syms exprs)
  in
  [
    ( "a symbol",
      "affine.load",
      "map",
      map ~n_syms:1 2 E.[ add (add (mul (dim 0) (const 8)) (dim 1)) (sym 0) ],
      "uses affine symbols" );
    ("a dim with no operand", "affine.load", "map", map 3 E.[ dim 2 ],
     "reads d2 but has 2 operands");
    ( "a non-constant divisor",
      "affine.apply",
      "map",
      map 2 [ E.Mod (E.dim 0, E.dim 1) ],
      "divides by a non-constant" );
    ( "a zero divisor",
      "affine.apply",
      "map",
      map 2 [ E.Floor_div (E.dim 0, E.Const 0) ],
      "divides by zero" );
    ("an empty bound map", "affine.for", "upper_bound", map 0 [],
     "upper bound map has no results");
    ("a step below 1", "affine.for", "step", Ir.Attr.Int 0,
     "affine.for with non-positive step");
  ]

let stage_reject_kernel =
  {|builtin.module {
  func.func @k(%A: memref<64xf32>) {
    affine.for %i = 0 to 8 {
      affine.for %j = 0 to 8 {
        %p = affine.apply %i + %j
        %0 = affine.load %A[%i * 8 + %j] : memref<64xf32>
        affine.store %0, %A[%p] : memref<64xf32>
        affine.yield
      }
      affine.yield
    }
    func.return
  }
}|}

let test_stage_rejects () =
  List.iter
    (fun (what, name, attr, value, want) ->
      List.iter
        (fun (engine, run) ->
          let f =
            Option.get
              (Ir.Core.find_func
                 (Ir.Parser.parse_module ~file:"k.mlir" stage_reject_kernel)
                 "k")
          in
          let target = ref None in
          Ir.Core.walk f (fun op ->
              if op.Ir.Core.o_name = name then target := Some op);
          let op = Option.get !target in
          Ir.Core.set_attr op attr value;
          match run f with
          | () -> Alcotest.failf "%s: %s staged it" what engine
          | exception Support.Diag.Error (loc, msg) ->
              let what = Printf.sprintf "%s (%s)" what engine in
              Alcotest.(check string) (what ^ ": location")
                (Support.Loc.to_string op.Ir.Core.o_loc)
                (Support.Loc.to_string loc);
              Alcotest.(check bool) (what ^ ": " ^ msg) true
                (String.starts_with ~prefix:(engine ^ ": ") msg
                && Astring_contains.contains msg want))
        [
          ("interp", fun f -> ignore (Interp.Compile.compile_func f));
          ( "trace",
            fun f ->
              ignore (Machine.Perf.time_func Machine.Machine_model.intel_i9 f)
          );
        ])
    stage_rejects

let suite =
  [
    Alcotest.test_case "simplify constants" `Quick test_simplify_constants;
    Alcotest.test_case "simplify linear" `Quick test_simplify_linear;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "floor div/mod sign grid" `Quick
      test_floor_semantics_sign_grid;
    Alcotest.test_case "is_single_dim" `Quick test_single_dim;
    Alcotest.test_case "used dims" `Quick test_used_dims;
    Alcotest.test_case "map eval permutation" `Quick test_map_eval_permutation;
    Alcotest.test_case "map range checks" `Quick test_map_ranges;
    QCheck_alcotest.to_alcotest prop_simplify_idempotent;
    QCheck_alcotest.to_alcotest prop_simplify_preserves_eval;
    QCheck_alcotest.to_alcotest prop_linearize_agrees;
    Alcotest.test_case "Stage rejects, located, in both engines" `Quick
      test_stage_rejects;
    QCheck_alcotest.to_alcotest prop_stage_agrees_with_eval;
  ]
