(* Tests for the executable BLIS-schedule lowering of affine.matmul. *)

open Ir
module T = Transforms
module W = Workloads.Polybench

let count_ops m name =
  let c = ref 0 in
  Core.walk m (fun op -> if String.equal op.Core.o_name name then incr c);
  !c

let raise_then_blis ?blocking src =
  let m = Met.Emit_affine.translate src in
  ignore (Transforms.Tactics.raise_to_affine_matmul m);
  T.Blis_schedule.run ?blocking m;
  Verifier.verify m;
  m

let test_structure () =
  let m =
    raise_then_blis
      ~blocking:{ T.Blis_schedule.mc = 4; nc = 8; kc = 4 }
      (W.mm ~ni:16 ~nj:16 ~nk:16 ())
  in
  Alcotest.(check int) "no affine.matmul left" 0 (count_ops m "affine.matmul");
  Alcotest.(check int) "two packing buffers" 2 (count_ops m "memref.alloc");
  (* jc, pc, ic cache loops + 2x2 packing + 3 macro = 10 loops *)
  Alcotest.(check int) "ten loops" 10 (count_ops m "affine.for")

let test_semantics_divisible () =
  let src = W.mm ~ni:16 ~nj:16 ~nk:16 () in
  let reference = Met.Emit_affine.translate src in
  let m =
    raise_then_blis ~blocking:{ T.Blis_schedule.mc = 4; nc = 8; kc = 4 } src
  in
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference m "mm" ~seed:89)

let test_semantics_edge_tiles () =
  (* 13 x 11 x 17 with blocks 4/8/4: every dimension has edge tiles. *)
  let src = W.mm ~ni:13 ~nj:11 ~nk:17 () in
  let reference = Met.Emit_affine.translate src in
  let m =
    raise_then_blis ~blocking:{ T.Blis_schedule.mc = 4; nc = 8; kc = 4 } src
  in
  Alcotest.(check bool) "equivalent with edge tiles" true
    (Interp.Eval.equivalent reference m "mm" ~seed:97)

let test_semantics_blocks_larger_than_problem () =
  let src = W.mm ~ni:6 ~nj:6 ~nk:6 () in
  let reference = Met.Emit_affine.translate src in
  let m = raise_then_blis src in
  (* default blocking far exceeds the problem *)
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent reference m "mm" ~seed:101)

let test_packed_locality_beats_naive () =
  (* The point of the schedule: on the machine model, the packed version
     beats the naive loops once the problem exceeds the cache. *)
  let n = 128 in
  let src = W.mm ~ni:n ~nj:n ~nk:n () in
  let machine = Machine.Machine_model.amd_2920x in
  let naive =
    Option.get (Core.find_func (Met.Emit_affine.translate src) "mm")
  in
  let blis_m =
    raise_then_blis ~blocking:{ T.Blis_schedule.mc = 32; nc = 64; kc = 32 } src
  in
  let blis = Option.get (Core.find_func blis_m "mm") in
  let t_naive = (Machine.Perf.time_func machine naive).Machine.Perf.seconds in
  let t_blis = (Machine.Perf.time_func machine blis).Machine.Perf.seconds in
  Alcotest.(check bool)
    (Printf.sprintf "blis (%.2e) < naive (%.2e)" t_blis t_naive)
    true (t_blis < t_naive)

let suite =
  [
    Alcotest.test_case "schedule structure" `Quick test_structure;
    Alcotest.test_case "semantics (divisible)" `Quick test_semantics_divisible;
    Alcotest.test_case "semantics (edge tiles)" `Quick
      test_semantics_edge_tiles;
    Alcotest.test_case "semantics (oversized blocks)" `Quick
      test_semantics_blocks_larger_than_problem;
    Alcotest.test_case "packed locality beats naive" `Quick
      test_packed_locality_beats_naive;
  ]
