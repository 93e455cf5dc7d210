(* Tests for the TDL parser, the TDL->TDS frontend (incl. TTGT synthesis),
   and the compiled raising patterns. *)

open Tdl
module W = Workloads.Polybench
module B = Interp.Buffer

let test_parse_gemm_tdl () =
  let t = Tdl_parser.parse_one Frontend.gemm_tdl in
  Alcotest.(check string) "name" "GEMM" t.Tdl_ast.t_name;
  Alcotest.(check int) "no explicit builders" 0 (List.length t.t_builder);
  Alcotest.(check string) "pattern rendering"
    "C(i, j) += A(i, k) * B(k, j)"
    (Tdl_ast.stmt_to_string t.t_pattern)

let test_parse_ttgt_tdl () =
  let t = Tdl_parser.parse_one Frontend.ttgt_tdl in
  Alcotest.(check string) "name" "TTGT" t.Tdl_ast.t_name;
  Alcotest.(check int) "four builder stmts" 4 (List.length t.t_builder);
  match (List.hd t.t_builder).Tdl_ast.where with
  | Some ("f", [ "a"; "c" ]) -> ()
  | _ -> Alcotest.fail "where clause not parsed"

let test_parse_errors () =
  let expect_fail src =
    match Support.Diag.wrap (fun () -> Tdl_parser.parse src) with
    | Ok _ -> Alcotest.failf "expected TDL parse error for %S" src
    | Error _ -> ()
  in
  expect_fail "def X { }";
  expect_fail "def X { pattern C(i) = }";
  expect_fail "def { pattern C(i) += A(i) * B(i) }";
  (* TDS (TableGen) syntax is not TDL: the lexer stops at its first
     character outside the TDL alphabet, the '.' of a dialect-qualified
     op name included. *)
  let expect_char_error src ~col c =
    Alcotest.(check (result reject string))
      src
      (Error (Printf.sprintf "<tdl>:1:%d: TDL: unexpected character %C" col c))
      (Support.Diag.wrap (fun () -> ignore (Tdl_parser.parse src)))
  in
  expect_char_error "def X : Tactic<C(i) += A(i) * B(i), [matmulBuilder]>;"
    ~col:7 ':';
  expect_char_error "def X { pattern C(i,j) += A(i,k) * B[k,j] }" ~col:37 '[';
  expect_char_error "def affine.for { pattern C(i) += A(i) * B(i) }" ~col:11
    '.'

let test_frontend_gemm_is_single_matmul () =
  let tds = Frontend.lower (Tdl_parser.parse_one Frontend.gemm_tdl) in
  match tds.Tds.builders with
  | [ Tds.Matmul { in1 = "A"; in2 = "B"; output = "C" } ] -> ()
  | bs ->
      Alcotest.failf "expected a single matmulBuilder, got %d steps"
        (List.length bs)

let test_frontend_ttgt_explicit_matches_listing4 () =
  (* Listing 3 must lower to the 6-step sequence of Listing 4. *)
  let tds = Frontend.lower (Tdl_parser.parse_one Frontend.ttgt_tdl) in
  match tds.Tds.builders with
  | [
   Tds.Transpose { input = "C"; perm = [ 0; 2; 1 ]; _ };
   Tds.Reshape { grouping = [ [ 0; 1 ]; [ 2 ] ]; _ };
   Tds.Reshape { input = "A"; grouping = [ [ 0; 1 ]; [ 2 ] ]; _ };
   Tds.Matmul { in2 = "B"; _ };
   Tds.Reshape { output = _; _ };
   Tds.Transpose { output = "C"; perm = [ 0; 2; 1 ]; _ };
  ] ->
      ()
  | bs ->
      Alcotest.failf "unexpected TTGT lowering:\n%s"
        (Tds.to_string { tds with Tds.builders = bs })

let test_frontend_auto_ttgt_equals_explicit_shape () =
  (* Auto-synthesis for abc-acd-db should produce the same step kinds. *)
  let src = Frontend.contraction_tdl ~name:"AUTO" "abc" "acd" "db" in
  let tds = Frontend.lower (Tdl_parser.parse_one src) in
  let kinds =
    List.map
      (function
        | Tds.Transpose _ -> "t"
        | Tds.Reshape _ -> "r"
        | Tds.Matmul _ -> "m"
        | Tds.Matvec _ -> "v"
        | Tds.Conv2d _ -> "c")
      tds.Tds.builders
  in
  (* C(a,b,c): M = [a;c], N = [b]; C needs transpose+reshape, A only
     reshape, B untouched; fold back reshape+transpose. *)
  Alcotest.(check (list string)) "step kinds" [ "t"; "r"; "r"; "m"; "r"; "t" ]
    kinds

let test_frontend_matvec_classification () =
  let t = Tdl_parser.parse_one "def MV { pattern y(i) += A(i,j) * x(j) }" in
  (match (Frontend.lower t).Tds.builders with
  | [ Tds.Matvec { transpose = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected plain matvec");
  let t = Tdl_parser.parse_one "def MVT { pattern y(j) += A(i,j) * x(i) }" in
  match (Frontend.lower t).Tds.builders with
  | [ Tds.Matvec { in1 = "A"; in2 = "x"; transpose = true; _ } ] -> ()
  | _ -> Alcotest.fail "expected transposed matvec"

let test_frontend_conv_classification () =
  let t =
    Tdl_parser.parse_one
      "def CONV { pattern O(n,f,x,y) += I(n,c,x+r,y+s) * W(f,c,r,s) }"
  in
  match (Frontend.lower t).Tds.builders with
  | [ Tds.Conv2d _ ] -> ()
  | _ -> Alcotest.fail "expected conv2d builder"

let test_frontend_rejects_bad_patterns () =
  (* Every rejection is located at the tactic's [def]. *)
  let expect_fail src =
    match
      Support.Diag.wrap (fun () -> Frontend.lower (Tdl_parser.parse_one src))
    with
    | Ok _ -> Alcotest.failf "expected frontend error for %S" src
    | Error e ->
        if not (String.starts_with ~prefix:"<tdl>:1:1: TDL: " e) then
          Alcotest.failf "%S: rejection not located at the def: %s" src e
  in
  (* assignment instead of accumulation *)
  expect_fail "def X { pattern C(i,j) = A(i,k) * B(k,j) }";
  (* no contracted index *)
  expect_fail "def X { pattern C(i,j) += A(i) * B(j) }";
  (* output index in both inputs *)
  expect_fail "def X { pattern C(i) += A(i,k) * B(i,k) }"

let test_frontend_rejects_unfaithful_builders () =
  (* An explicit builder that cannot compute its pattern is rejected at
     the def; the first one once raised gemm into a transpose of A. *)
  let expect_fail src expected =
    match
      Support.Diag.wrap (fun () -> Frontend.lower (Tdl_parser.parse_one src))
    with
    | Ok _ -> Alcotest.failf "expected frontend error for %S" src
    | Error e -> Alcotest.(check string) src ("<tdl>:1:1: TDL: " ^ expected) e
  in
  expect_fail
    "def X { pattern C(i,j) += A(i,k) * B(k,j) builder C(i,j) = A(i,j) }"
    "builder has no accumulation (+=)";
  expect_fail
    "def X { pattern C(i,j) += A(i,k) * B(k,j) builder D(i,j) += A(i,k) * \
     B(k,j) }"
    "builder must end by writing the pattern's output C";
  expect_fail
    "def X { pattern C(i,j) += A(i,k) * B(k,j) builder C(i,j) += A(i,k) * \
     A(k,j) }"
    "builder never reads the pattern's input B"

let test_frontend_rejects_non_simple_builder_subscript () =
  (* Listing 3 with a constant subscript in its accumulation: the
     frontend rejects it at the def, like every other TDL error. *)
  let src =
    {|def TTGT {
  pattern
    C(a,b,c) += A(a,c,d) * B(d,b)
  builder
    D(f,b) = C(a,b,c) where f = a * c
    E(f,d) = A(a,c,d) where f = a * c
    D(f,1) += E(f,d) * B(d,b)
    C(a,b,c) = D(f,b) where f = a * c
}
|}
  in
  match
    Support.Diag.wrap (fun () -> Frontend.lower_source ~file:"ttgt.tdl" src)
  with
  | Ok _ -> Alcotest.fail "expected a frontend error"
  | Error e ->
      Alcotest.(check string) "located at the def"
        "ttgt.tdl:1:1: TDL: builder statements need simple subscripts" e

let test_backend_errors_located () =
  (* The backend's own rejections are located at the tactic's def. *)
  match
    Support.Diag.wrap (fun () ->
        List.map Backend.compile
          (Frontend.lower_source ~file:"t.tdl"
             "def X { pattern C(i,j) += C(i,k) * C(k,j) }"))
  with
  | Ok _ -> Alcotest.fail "expected a backend error"
  | Error e ->
      if not (String.starts_with ~prefix:"t.tdl:1:1: backend: " e) then
        Alcotest.failf "backend error not located at the def: %s" e

(* ---- compiled raising patterns -------------------------------------- *)

let raise_with_tdl tdl_src c_src =
  let m = Met.Emit_affine.translate c_src in
  let patterns = Backend.compile_tdl tdl_src in
  let n = Ir.Rewriter.apply_greedily m (Ir.Rewriter.freeze patterns) in
  Ir.Verifier.verify m;
  (m, n)

let count_ops m name =
  let c = ref 0 in
  Ir.Core.walk m (fun op -> if String.equal op.Ir.Core.o_name name then incr c);
  !c

let test_backend_raises_gemm () =
  let m, n = raise_with_tdl Frontend.gemm_tdl (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  Alcotest.(check int) "one application" 1 n;
  Alcotest.(check int) "linalg.matmul present" 1 (count_ops m "linalg.matmul");
  Alcotest.(check int) "loops gone" 0 (count_ops m "affine.for")

let test_backend_raising_preserves_semantics () =
  let src = W.mm ~ni:7 ~nj:5 ~nk:9 () in
  let reference = Met.Emit_affine.translate src in
  let raised, n = raise_with_tdl Frontend.gemm_tdl src in
  Alcotest.(check int) "raised" 1 n;
  Alcotest.(check bool) "same semantics" true
    (Interp.Eval.equivalent reference raised "mm" ~seed:42)

let test_backend_partial_iteration_not_raised () =
  (* The k loop covers only half the array: must NOT be raised. *)
  let src =
    "void f(float A[8][8], float B[8][8], float C[8][8]) { for (int i = 0; \
     i < 8; ++i) for (int j = 0; j < 8; ++j) for (int k = 0; k < 4; ++k) \
     C[i][j] += A[i][k] * B[k][j]; }"
  in
  let m, n = raise_with_tdl Frontend.gemm_tdl src in
  Alcotest.(check int) "no application" 0 n;
  Alcotest.(check int) "loops remain" 3 (count_ops m "affine.for")

let test_backend_nonzero_base_not_raised () =
  let src =
    "void f(float A[8][8], float B[8][8], float C[8][8]) { for (int i = 1; \
     i < 8; ++i) for (int j = 0; j < 8; ++j) for (int k = 0; k < 8; ++k) \
     C[i][j] += A[i][k] * B[k][j]; }"
  in
  let _, n = raise_with_tdl Frontend.gemm_tdl src in
  Alcotest.(check int) "no application" 0 n

let test_backend_darknet_not_raised () =
  let m, n =
    raise_with_tdl Frontend.gemm_tdl (W.darknet_gemm ~m:8 ~n:8 ~k:8 ())
  in
  Alcotest.(check int) "no application (fig 8)" 0 n;
  Alcotest.(check int) "loops remain" 3 (count_ops m "affine.for")

let test_backend_raises_all_contractions_with_ttgt () =
  (* Every paper contraction: auto-TTGT tactic raises it, and the raised
     program is interpreter-equivalent to the loops. *)
  List.iter
    (fun (name, spec, _) ->
      let sizes =
        List.map
          (fun c -> (c, 4))
          (Workloads.Contraction_spec.all_indices spec)
      in
      let c_src =
        Workloads.Contraction_spec.c_source spec ~sizes ~init:false
          ~name:"kern" ()
      in
      let s = Workloads.Contraction_spec.to_string spec in
      let tdl =
        match String.split_on_char '-' s with
        | [ o; a; b ] -> Frontend.contraction_tdl ~name:"T" o a b
        | _ -> assert false
      in
      let reference = Met.Emit_affine.translate c_src in
      let raised, n = raise_with_tdl tdl c_src in
      if n <> 1 then Alcotest.failf "%s: expected 1 application, got %d" name n;
      if count_ops raised "affine.for" <> 0 then
        Alcotest.failf "%s: loops remain after raising" name;
      if not (Interp.Eval.equivalent reference raised "kern" ~seed:17) then
        Alcotest.failf "%s: TTGT raising changed semantics" name)
    (Workloads.Contraction_spec.paper_benchmarks ())

let test_backend_explicit_ttgt_preserves_semantics () =
  (* The Listing 3 tactic applied to the Listing 2 contraction. *)
  let sizes = [ ('a', 4); ('b', 5); ('c', 3); ('d', 6) ] in
  let spec = Workloads.Contraction_spec.parse "abc-acd-db" in
  let c_src =
    Workloads.Contraction_spec.c_source spec ~sizes ~init:false ~name:"kern" ()
  in
  let reference = Met.Emit_affine.translate c_src in
  let raised, n = raise_with_tdl Frontend.ttgt_tdl c_src in
  Alcotest.(check int) "raised" 1 n;
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference raised "kern" ~seed:23)

let test_backend_conv_raises () =
  let src = W.conv2d_nchw ~n:1 ~c:2 ~h:8 ~w:8 ~f:2 ~kh:3 ~kw:3 () in
  let tdl = "def CONV { pattern O(n,f,x,y) += I(n,c,x+r,y+s) * W(f,c,r,s) }" in
  let reference = Met.Emit_affine.translate src in
  let raised, n = raise_with_tdl tdl src in
  Alcotest.(check int) "raised" 1 n;
  Alcotest.(check int) "conv op" 1 (count_ops raised "linalg.conv2d_nchw");
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference raised "conv2d_nchw" ~seed:5)

let test_backend_affine_target () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let pats =
    Backend.compile_tdl ~target:Backend.To_affine_matmul Frontend.gemm_tdl
  in
  let n = Ir.Rewriter.apply_greedily m (Ir.Rewriter.freeze pats) in
  Alcotest.(check int) "raised" 1 n;
  Alcotest.(check int) "affine.matmul" 1 (count_ops m "affine.matmul");
  (* affine.matmul is still executable by the interpreter. *)
  let reference = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference m "mm" ~seed:9)

let test_backend_affine_target_rejects_ttgt () =
  match
    Support.Diag.wrap (fun () ->
        Backend.compile_tdl ~target:Backend.To_affine_matmul Frontend.ttgt_tdl)
  with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "parse gemm tdl (listing 8)" `Quick test_parse_gemm_tdl;
    Alcotest.test_case "parse ttgt tdl (listing 3)" `Quick test_parse_ttgt_tdl;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "frontend: gemm = single matmul" `Quick
      test_frontend_gemm_is_single_matmul;
    Alcotest.test_case "frontend: listing 3 -> listing 4" `Quick
      test_frontend_ttgt_explicit_matches_listing4;
    Alcotest.test_case "frontend: auto TTGT synthesis" `Quick
      test_frontend_auto_ttgt_equals_explicit_shape;
    Alcotest.test_case "frontend: matvec classification" `Quick
      test_frontend_matvec_classification;
    Alcotest.test_case "frontend: conv classification" `Quick
      test_frontend_conv_classification;
    Alcotest.test_case "frontend: rejects bad patterns" `Quick
      test_frontend_rejects_bad_patterns;
    Alcotest.test_case "frontend: rejects builders that miss the pattern"
      `Quick test_frontend_rejects_unfaithful_builders;
    Alcotest.test_case "backend: errors located at the def" `Quick
      test_backend_errors_located;
    Alcotest.test_case "backend: raises gemm to linalg" `Quick
      test_backend_raises_gemm;
    Alcotest.test_case "backend: raising preserves semantics" `Quick
      test_backend_raising_preserves_semantics;
    Alcotest.test_case "backend: partial iteration rejected" `Quick
      test_backend_partial_iteration_not_raised;
    Alcotest.test_case "backend: non-zero base rejected" `Quick
      test_backend_nonzero_base_not_raised;
    Alcotest.test_case "backend: darknet not raised (fig 8)" `Quick
      test_backend_darknet_not_raised;
    Alcotest.test_case "backend: all paper contractions via TTGT" `Quick
      test_backend_raises_all_contractions_with_ttgt;
    Alcotest.test_case "backend: explicit TTGT (listing 3) semantics" `Quick
      test_backend_explicit_ttgt_preserves_semantics;
    Alcotest.test_case "backend: conv2d raising" `Quick test_backend_conv_raises;
    Alcotest.test_case "backend: affine.matmul target (sec 5.1)" `Quick
      test_backend_affine_target;
    Alcotest.test_case "backend: affine target rejects TTGT" `Quick
      test_backend_affine_target_rejects_ttgt;
    Alcotest.test_case "frontend: non-simple builder subscript is located"
      `Quick test_frontend_rejects_non_simple_builder_subscript;
  ]
