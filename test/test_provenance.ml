(* Tests for op provenance: source locations threaded from the mini-C
   frontend and the IR parser onto ops, the derivation chains the rewrite
   driver stamps onto pattern-generated ops, and their rendering under
   [--print-debug-locs]. *)

open Ir
module W = Workloads.Polybench
module L = Support.Loc

let contains = Astring_contains.contains

let find_op m name =
  let found = ref None in
  Core.walk m (fun op -> if op.Core.o_name = name then found := Some op);
  match !found with
  | Some op -> op
  | None -> Alcotest.failf "no %s in the module" name

(* The acceptance scenario: a GEMM kernel raised to linalg.matmul carries
   a derivation naming the GEMM tactic and the C source locations of the
   consumed affine.for nest. *)
let raised_gemm () =
  let m =
    Met.Emit_affine.translate ~file:"gemm.c" (W.mm ~ni:8 ~nj:8 ~nk:8 ())
  in
  ignore (Transforms.Tactics.raise_to_linalg m);
  m

let test_frontend_locs () =
  let m =
    Met.Emit_affine.translate ~file:"gemm.c" (W.mm ~ni:8 ~nj:8 ~nk:8 ())
  in
  let loops = ref [] in
  Core.walk m (fun op ->
      if Affine.Affine_ops.is_for op then loops := op :: !loops);
  Alcotest.(check bool) "found loops" true (!loops <> []);
  List.iter
    (fun loop ->
      let loc = Core.op_loc loop in
      Alcotest.(check bool) "loop has a known loc" true (L.is_known loc);
      Alcotest.(check string) "file threaded through" "gemm.c" loc.L.file)
    !loops;
  (* Distinct loops of the nest come from distinct source lines. *)
  let lines =
    List.sort_uniq compare
      (List.map (fun l -> (Core.op_loc l).L.line) !loops)
  in
  Alcotest.(check bool) "nest loops on distinct lines" true
    (List.length lines >= 3)

let test_matmul_provenance () =
  let m = raised_gemm () in
  let mm = find_op m "linalg.matmul" in
  match Core.provenance mm with
  | [ d ] ->
      Alcotest.(check string) "names the tactic" "GEMM" d.Core.dv_pattern;
      Alcotest.(check bool) "has source locs" true (d.Core.dv_locs <> []);
      List.iter
        (fun (l : L.t) ->
          Alcotest.(check string) "locs point into the C source" "gemm.c"
            l.L.file)
        d.Core.dv_locs;
      (* The consumed nest spans several source lines, all collected. *)
      let lines =
        List.sort_uniq compare (List.map (fun l -> l.L.line) d.Core.dv_locs)
      in
      Alcotest.(check bool) "covers the loop nest" true
        (List.length lines >= 3);
      (* The derived op inherits a location from its sources. *)
      Alcotest.(check bool) "derived op has a loc" true
        (L.is_known (Core.op_loc mm))
  | ds -> Alcotest.failf "expected one derivation, got %d" (List.length ds)

let test_debug_locs_printing () =
  let m = raised_gemm () in
  let plain = Printer.op_to_string m in
  Alcotest.(check bool) "default printing has no loc trailers" false
    (contains plain "loc(");
  let debug = Printer.op_to_string ~debug_locs:true m in
  Alcotest.(check bool) "derived op renders its chain" true
    (contains debug "derived \"GEMM\" from [gemm.c:");
  (* Un-derived ops (here: the loops of an unraised module) render their
     plain source location. *)
  let unraised =
    Met.Emit_affine.translate ~file:"gemm.c" (W.mm ~ni:8 ~nj:8 ~nk:8 ())
  in
  Alcotest.(check bool) "plain ops render their loc" true
    (contains (Printer.op_to_string ~debug_locs:true unraised) " loc(gemm.c:")

let test_parser_locs () =
  let src =
    "builtin.module {\n\
    \  func.func @f(%A: memref<4xf32>) {\n\
    \    %c = arith.constant 1.0 : f32\n\
    \    func.return\n\
    \  }\n\
     }\n"
  in
  let m = Parser.parse_module ~file:"t.mlir" src in
  let c = find_op m "arith.constant" in
  let loc = Core.op_loc c in
  Alcotest.(check string) "parser file" "t.mlir" loc.L.file;
  Alcotest.(check int) "parser line" 3 loc.L.line;
  let f = find_op m "func.func" in
  Alcotest.(check int) "region op gets its own first-token line" 2
    (Core.op_loc f).L.line

let test_clone_preserves_provenance () =
  let m = raised_gemm () in
  let clone = Core.clone_op m in
  let mm = find_op clone "linalg.matmul" in
  (match Core.provenance mm with
  | [ d ] -> Alcotest.(check string) "clone keeps chain" "GEMM" d.Core.dv_pattern
  | ds -> Alcotest.failf "clone: expected one derivation, got %d" (List.length ds));
  Alcotest.(check bool) "clone keeps loc" true
    (L.is_known (Core.op_loc mm))

let test_with_loc_scoping () =
  let l1 = L.make ~file:"a.c" ~line:1 ~col:1 in
  let inner = L.make ~file:"a.c" ~line:9 ~col:9 in
  Core.with_loc l1 (fun () ->
      let op1 = Core.create_op ~operands:[] ~result_types:[] "test.a" in
      Alcotest.(check bool) "ambient loc stamps creation" true
        (L.equal (Core.op_loc op1) l1);
      Core.with_loc inner (fun () ->
          let op2 = Core.create_op ~operands:[] ~result_types:[] "test.b" in
          Alcotest.(check bool) "nested scope wins" true
            (L.equal (Core.op_loc op2) inner));
      let op3 = Core.create_op ~operands:[] ~result_types:[] "test.c" in
      Alcotest.(check bool) "outer scope restored" true
        (L.equal (Core.op_loc op3) l1));
  let op4 = Core.create_op ~operands:[] ~result_types:[] "test.d" in
  Alcotest.(check bool) "unknown outside any scope" false
    (L.is_known (Core.op_loc op4));
  (* Explicit ?loc overrides the ambient one. *)
  Core.with_loc l1 (fun () ->
      let op5 =
        Core.create_op ~loc:inner ~operands:[] ~result_types:[] "test.e"
      in
      Alcotest.(check bool) "?loc beats ambient" true
        (L.equal (Core.op_loc op5) inner))

let test_fill_provenance () =
  (* W.gemm (unlike W.mm) initializes C, so loop distribution gives the
     raise-fill pattern a nest to consume. *)
  let m =
    Met.Emit_affine.translate ~file:"gemm.c" (W.gemm ~ni:8 ~nj:8 ~nk:8 ())
  in
  ignore (Transforms.Tactics.raise_to_linalg m);
  let fill = find_op m "linalg.fill" in
  match Core.provenance fill with
  | [ d ] ->
      Alcotest.(check string) "fill stamped by raise-fill" "raise-fill"
        d.Core.dv_pattern
  | ds -> Alcotest.failf "expected one derivation, got %d" (List.length ds)

let suite =
  [
    Alcotest.test_case "mini-C frontend threads locations" `Quick
      test_frontend_locs;
    Alcotest.test_case "raised matmul carries the GEMM chain" `Quick
      test_matmul_provenance;
    Alcotest.test_case "--print-debug-locs rendering" `Quick
      test_debug_locs_printing;
    Alcotest.test_case "IR parser stamps op locations" `Quick
      test_parser_locs;
    Alcotest.test_case "clone preserves loc and provenance" `Quick
      test_clone_preserves_provenance;
    Alcotest.test_case "with_loc is dynamically scoped" `Quick
      test_with_loc_scoping;
    Alcotest.test_case "raise-fill stamps its fill" `Quick
      test_fill_provenance;
  ]
