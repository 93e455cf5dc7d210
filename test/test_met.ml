(* Tests for the mini-C frontend: lexer/parser, loop distribution, and
   emission to the Affine dialect. *)

open Met
module W = Workloads.Polybench

let parse src = C_parser.parse_kernel src

let test_parse_gemm () =
  let k = parse (W.gemm ~ni:8 ~nj:8 ~nk:8 ()) in
  Alcotest.(check string) "name" "gemm" k.C_ast.k_name;
  Alcotest.(check int) "params" 3 (List.length k.k_params);
  match k.k_body with
  | [ C_ast.S_for { var = "i"; lb = 0; ub = 8; body = [ S_for _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected body shape"

let test_parse_compound_assign () =
  let k =
    parse "void f(float A[4]) { for (int i = 0; i < 4; ++i) A[i] *= 2.0; }"
  in
  match k.k_body with
  | [ C_ast.S_for { body = [ S_assign { rhs = E_mul (E_ref _, E_lit 2.0); _ } ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "*= not desugared to multiplication"

let test_parse_linearized () =
  let k = parse (W.darknet_gemm ~m:4 ~n:4 ~k:4 ()) in
  match k.k_body with
  | [ C_ast.S_for { body = [ S_for { body = [ S_for { body = [ S_assign a ]; _ } ]; _ } ]; _ } ]
    ->
      (* C[i*4 + j]: one subscript mixing two loop vars. *)
      Alcotest.(check int) "rank-1 lhs" 1 (List.length a.lhs.subscripts)
  | _ -> Alcotest.fail "unexpected darknet shape"

let test_parse_errors () =
  let expect_fail src =
    match Support.Diag.wrap (fun () -> parse src) with
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
    | Error _ -> ()
  in
  expect_fail "void f(float A[4]) { for (int i = 0; i > 4; ++i) A[i] = 0.0; }";
  expect_fail "void f(float A[4]) { for (int i = 0; j < 4; ++i) A[i] = 0.0; }";
  expect_fail "void f(float A[4]) { for (int i = 0; i < 4; ++j) A[i] = 0.0; }";
  expect_fail "void f(float A[4]) { A[0] = ; }";
  expect_fail "void f(float A[4]) { A[0] 1.0; }"

(* Input cut off anywhere fails with a located error at end of input,
   never an escaping exception: the parser's lookahead once asserted on
   running past the last token. *)
let test_truncated_input_is_located () =
  (match C_parser.parse_kernel ~file:"cut.c" "void f(float A[4]) { A" with
  | _ -> Alcotest.fail "parsed a truncated kernel"
  | exception Support.Diag.Error (loc, msg) ->
      Alcotest.(check string) "location"
        "cut.c:1:23: expected expression, found end of input"
        (Support.Diag.to_string loc msg));
  let src = W.gemm ~ni:4 ~nj:4 ~nk:4 () in
  let complete = String.rindex src '}' + 1 in
  for n = 1 to complete - 1 do
    match C_parser.parse_kernel ~file:"cut.c" (String.sub src 0 n) with
    | _ -> Alcotest.failf "parsed a %d-byte prefix of gemm" n
    | exception Support.Diag.Error (loc, _) ->
        if loc.Support.Loc.file <> "cut.c" then
          Alcotest.failf "%d-byte prefix: error not located in the input" n
  done

let test_lexer_comments () =
  let k =
    parse
      "void f(float A[4]) { // line\n/* block\ncomment */ for (int i = 0; i \
       < 4; i++) A[i] = 0.0; }"
  in
  Alcotest.(check int) "one stmt" 1 (List.length k.C_ast.k_body)

let count_top_level_fors k =
  List.length
    (List.filter
       (function C_ast.S_for _ -> true | _ -> false)
       k.C_ast.k_body)

let test_distribute_gemm () =
  (* gemm has C init and accumulation fused under (i, j); distribution must
     split them into two nests. *)
  let k = parse (W.gemm ~ni:8 ~nj:8 ~nk:8 ()) in
  let k' = Distribute.kernel k in
  Alcotest.(check int) "two nests" 2 (count_top_level_fors k');
  (* The accumulation nest must now be perfectly nested (single stmt). *)
  match k'.k_body with
  | [ _init; C_ast.S_for { body = [ S_for { body = [ S_for _ ]; _ } ]; _ } ] ->
      ()
  | _ -> Alcotest.fail "accumulation nest not isolated"

let test_distribute_preserves_dependences () =
  (* x[i] = y[i]; y[i+1] = x[i]  -- subscripts differ on a shared written
     array, so the two statements must stay together. *)
  let src =
    "void f(float x[8], float y[9]) { for (int i = 0; i < 8; ++i) { x[i] = \
     y[i]; y[i + 1] = x[i]; } }"
  in
  let k = Distribute.kernel (parse src) in
  Alcotest.(check int) "kept fused" 1 (count_top_level_fors k);
  match k.C_ast.k_body with
  | [ C_ast.S_for { body; _ } ] ->
      Alcotest.(check int) "both statements" 2 (List.length body)
  | _ -> Alcotest.fail "unexpected shape"

let test_distribute_orders_components () =
  (* Independent statements split, order preserved. *)
  let src =
    "void f(float a[8], float b[8]) { for (int i = 0; i < 8; ++i) { a[i] = \
     1.0; b[i] = 2.0; } }"
  in
  let k = Distribute.kernel (parse src) in
  match k.C_ast.k_body with
  | [ C_ast.S_for { body = [ S_assign s1 ]; _ };
      C_ast.S_for { body = [ S_assign s2 ]; _ } ] ->
      Alcotest.(check string) "first" "a" s1.lhs.array;
      Alcotest.(check string) "second" "b" s2.lhs.array
  | _ -> Alcotest.fail "expected two single-statement loops"

let test_emit_verifies_all_workloads () =
  List.iter
    (fun (name, src, _) ->
      match Support.Diag.wrap (fun () -> Emit_affine.translate src) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    (List.map (fun (n, s) -> (n, s, 0.)) (W.tiny_suite ()))

let test_emit_gemm_structure () =
  let m = Emit_affine.translate (W.gemm ~ni:8 ~nj:8 ~nk:8 ()) in
  let f = Option.get (Ir.Core.find_func m "gemm") in
  let nests = Affine.Loops.top_level_loops f in
  Alcotest.(check int) "two nests after distribution" 2 (List.length nests);
  let acc_nest = List.nth nests 1 in
  let loops, body = Affine.Loops.nest_with_body acc_nest in
  Alcotest.(check int) "triple loop" 3 (List.length loops);
  Alcotest.(check int) "3 loads 1 store 2 arith" 6 (List.length body)

let test_emit_linearized_access_map () =
  let m = Emit_affine.translate (W.darknet_gemm ~m:4 ~n:4 ~k:4 ()) in
  let f = Option.get (Ir.Core.find_func m "darknet_gemm") in
  (* Every access is rank-1 with a 2-variable map like 4*d0 + d1. *)
  let saw_linearized = ref false in
  Ir.Core.walk f (fun op ->
      if Affine.Affine_ops.is_load op then begin
        let map = Affine.Affine_ops.access_map op in
        Alcotest.(check int) "rank-1" 1 (Ir.Affine_map.n_results map);
        if map.Ir.Affine_map.n_dims = 2 then saw_linearized := true
      end);
  Alcotest.(check bool) "found a linearized access" true !saw_linearized

let test_emit_locals_alloc () =
  let m = Emit_affine.translate (W.two_mm ~ni:8 ~nj:8 ~nk:8 ~nl:8 ()) in
  let f = Option.get (Ir.Core.find_func m "two_mm") in
  let allocs = ref 0 in
  Ir.Core.walk f (fun op ->
      if Std_dialect.Memref_ops.is_alloc op then incr allocs);
  Alcotest.(check int) "one local buffer" 1 !allocs

let test_emit_rejects_bad_programs () =
  let expect_fail src =
    match Support.Diag.wrap (fun () -> Emit_affine.translate src) with
    | Ok _ -> Alcotest.failf "expected semantic error for %S" src
    | Error _ -> ()
  in
  (* undeclared array *)
  expect_fail "void f(float A[4]) { for (int i = 0; i < 4; ++i) Z[i] = 0.0; }";
  (* rank mismatch *)
  expect_fail "void f(float A[4]) { for (int i = 0; i < 4; ++i) A[i][i] = 0.0; }";
  (* non-affine subscript i*i *)
  expect_fail
    "void f(float A[16]) { for (int i = 0; i < 4; ++i) A[i*i] = 0.0; }";
  (* subscript variable that is not a loop variable *)
  expect_fail "void f(float A[4]) { A[q] = 0.0; }";
  (* shadowed loop variable *)
  expect_fail
    "void f(float A[4]) { for (int i = 0; i < 4; ++i) for (int i = 0; i < 4; \
     ++i) A[i] = 0.0; }"

let test_roundtrip_print_parse_ast () =
  (* Printing a kernel and reparsing it yields the same AST. *)
  List.iter
    (fun (name, src, _) ->
      let k = parse src in
      let printed = Format.asprintf "%a" C_ast.pp_kernel k in
      let k2 = parse printed in
      if C_ast.strip_locs k <> C_ast.strip_locs k2 then
        Alcotest.failf "%s: AST roundtrip mismatch" name)
    (List.map (fun (n, s) -> (n, s, 0.)) (W.tiny_suite ()))

let suite =
  [
    Alcotest.test_case "parse gemm" `Quick test_parse_gemm;
    Alcotest.test_case "parse compound assignment" `Quick
      test_parse_compound_assign;
    Alcotest.test_case "parse linearized subscripts" `Quick
      test_parse_linearized;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "truncated input is a located error" `Quick
      test_truncated_input_is_located;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "distribute gemm" `Quick test_distribute_gemm;
    Alcotest.test_case "distribution preserves dependences" `Quick
      test_distribute_preserves_dependences;
    Alcotest.test_case "distribution orders components" `Quick
      test_distribute_orders_components;
    Alcotest.test_case "emit verifies all workloads" `Quick
      test_emit_verifies_all_workloads;
    Alcotest.test_case "emit gemm structure" `Quick test_emit_gemm_structure;
    Alcotest.test_case "emit linearized access maps" `Quick
      test_emit_linearized_access_map;
    Alcotest.test_case "emit locals as allocs" `Quick test_emit_locals_alloc;
    Alcotest.test_case "emit rejects bad programs" `Quick
      test_emit_rejects_bad_programs;
    Alcotest.test_case "kernel AST print/parse roundtrip" `Quick
      test_roundtrip_print_parse_ast;
  ]
