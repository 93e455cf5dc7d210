(* Differential tests for the staged compile-to-closure execution engine:
   on every workload and on random programs, the compiled engine must
   produce buffers bit-identical to the tree-walking oracle. *)

open Ir
module B = Interp.Buffer
module W = Workloads.Polybench

(* Run [fname] of module [m] through both engines on identical random
   inputs and require bit-identical output buffers (not approx_equal: the
   engines execute the same float operations in the same order). *)
let engines_agree ?(seed = 17) m fname =
  let walk = Interp.Eval.run_on_random ~engine:Interp.Eval.Walk m fname ~seed in
  let compiled =
    Interp.Eval.run_on_random ~engine:Interp.Eval.Compiled m fname ~seed
  in
  List.for_all2 (fun a b -> B.max_abs_diff a b = 0.) walk compiled

let check_engines_agree name m fname =
  if not (engines_agree m fname) then
    Alcotest.failf "%s: compiled engine disagrees with the walker" name

let func_name_of m =
  Core.func_name
    (List.hd
       (List.filter Core.is_func (Core.ops_of_block (Core.module_block m))))

let test_engines_agree_affine_level () =
  List.iter
    (fun (name, src) ->
      let m = Met.Emit_affine.translate src in
      check_engines_agree (name ^ "/affine") m (func_name_of m))
    (W.tiny_suite ())

let test_engines_agree_scf_level () =
  List.iter
    (fun (name, src) ->
      let m = Met.Emit_affine.translate src in
      Transforms.Lower_affine.run m;
      Verifier.verify m;
      check_engines_agree (name ^ "/scf") m (func_name_of m))
    (W.tiny_suite ())

let test_engines_agree_linalg_level () =
  (* After raising, execution goes through the kernel fast paths of both
     engines; they must still agree bit-for-bit. *)
  List.iter
    (fun (name, src) ->
      let m = Met.Emit_affine.translate src in
      ignore (Transforms.Canonicalize.run m);
      ignore (Transforms.Tactics.raise_to_linalg m);
      Verifier.verify m;
      check_engines_agree (name ^ "/linalg") m (func_name_of m))
    (W.tiny_suite ())

let test_engines_agree_tiled () =
  (* Tiling produces min-bounded multi-result upper bound maps — the
     interesting case for the compiled engine's bound closures. *)
  List.iter
    (fun tile ->
      let m = Met.Emit_affine.translate (W.mm ~ni:13 ~nj:7 ~nk:9 ()) in
      Transforms.Loop_tile.tile_all m ~size:tile;
      Verifier.verify m;
      check_engines_agree (Printf.sprintf "mm tiled %d" tile) m "mm")
    [ 2; 3; 5 ]

let prop_random_programs_engines_agree =
  (* Random loop nests over a single array (the mini-C generator also
     produces shapes larger than the iteration space, so some accesses
     keep non-trivial slack for the interval analysis). *)
  let gen =
    let open QCheck.Gen in
    let* depth = int_range 1 3 in
    let* extents = list_repeat depth (int_range 2 5) in
    let* pad = int_range 0 2 in
    let* scale = int_range 1 2 in
    let vars = [ "i"; "j"; "k" ] in
    let subscripts =
      String.concat ""
        (List.mapi
           (fun d _ ->
             if d = 0 && scale > 1 then
               Printf.sprintf "[%d * %s]" scale (List.nth vars d)
             else Printf.sprintf "[%s]" (List.nth vars d))
           extents)
    in
    let dims =
      String.concat ""
        (List.mapi
           (fun d e ->
             Printf.sprintf "[%d]"
               ((e * if d = 0 then scale else 1) + pad))
           extents)
    in
    let stmt =
      Printf.sprintf "A%s = A%s * 0.5 + 1.25;" subscripts subscripts
    in
    let rec loops d =
      if d = depth then stmt
      else
        Printf.sprintf "for (int %s = 0; %s < %d; ++%s) { %s }"
          (List.nth vars d) (List.nth vars d) (List.nth extents d)
          (List.nth vars d)
          (loops (d + 1))
    in
    return (Printf.sprintf "void f(float A%s) { %s }" dims (loops 0))
  in
  QCheck.Test.make ~name:"random nests: compiled engine = walker (bitwise)"
    ~count:60
    (QCheck.make ~print:Fun.id gen)
    (fun src ->
      let m = Met.Emit_affine.translate src in
      engines_agree m "f"
      && engines_agree (Met.Emit_affine.translate src) "f" ~seed:43)

(* ---- introspection: static bounds proof -------------------------------- *)

let compile_mm () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  Interp.Compile.compile_func (Option.get (Core.find_func m "mm"))

let test_mm_compiles_fully_unchecked () =
  let c = compile_mm () in
  Alcotest.(check int) "no checked accesses" 0
    c.Interp.Compile.c_checked_accesses;
  Alcotest.(check int) "all four accesses unchecked" 4
    c.Interp.Compile.c_unchecked_accesses

let test_frame_is_dense_and_reusable () =
  let c = compile_mm () in
  Alcotest.(check bool) "int frame is small and dense" true
    (c.Interp.Compile.c_n_ints <= 16);
  (* One compilation, many executions. *)
  let args () =
    List.init 3 (fun i ->
        let b = B.create [ 8; 8 ] in
        B.randomize ~seed:i b;
        b)
  in
  let a1 = args () and a2 = args () in
  Interp.Compile.execute c a1;
  Interp.Compile.execute c a2;
  List.iter2
    (fun x y -> Alcotest.(check (float 0.)) "deterministic re-execution" 0.
        (B.max_abs_diff x y))
    a1 a2

let test_unprovable_access_uses_checked_fallback () =
  (* A[i * (2 - i)] for i in [0,3) only ever touches A[0] and A[1], but
     interval analysis sees [0*0, 2*2] = [0,4] over shape [2]: it must take
     the checked fallback — and still agree with the walker. *)
  let f =
    Core.create_func ~name:"quad" ~arg_types:[ Typ.memref [ 2 ] Typ.F32 ]
      ~arg_hints:[ "A" ] ()
  in
  let a = List.hd (Core.func_args f) in
  let b = Builder.at_end (Core.func_entry f) in
  let lb = Std_dialect.Arith.constant_index b 0 in
  let ub = Std_dialect.Arith.constant_index b 3 in
  let step = Std_dialect.Arith.constant_index b 1 in
  ignore
    (Std_dialect.Scf.for_ b ~lb ~ub ~step (fun b i ->
         let two = Std_dialect.Arith.constant_index b 2 in
         let t = Std_dialect.Arith.subi b two i in
         let u = Std_dialect.Arith.muli b i t in
         let v = Std_dialect.Memref_ops.load b a [ u ] in
         let one = Std_dialect.Arith.constant_float b 1. in
         let w = Std_dialect.Arith.addf b v one in
         ignore (Std_dialect.Memref_ops.store b w a [ u ])));
  let c = Interp.Compile.compile_func f in
  Alcotest.(check bool) "took the checked fallback" true
    (c.Interp.Compile.c_checked_accesses > 0);
  let buf () =
    let x = B.create [ 2 ] in
    B.randomize ~seed:5 x;
    x
  in
  let bw = buf () and bc = buf () in
  Interp.Eval.run_func ~engine:Interp.Eval.Walk f [ bw ];
  Interp.Compile.execute c [ bc ];
  Alcotest.(check (float 0.)) "checked path agrees with walker" 0.
    (B.max_abs_diff bw bc)

let test_out_of_bounds_still_detected () =
  (* Shrinking the declared shape under the loop extent makes the access
     genuinely out of bounds: both engines must refuse it (not read out of
     the buffer). The walker raises [Invalid_argument]; the compiled
     engine's checked path raises a [Diag.Error] located at the access,
     naming the dimension, the index and the extent. *)
  let m = Met.Emit_affine.translate ~file:"mm.c" (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let f = Option.get (Core.find_func m "mm") in
  List.iter
    (fun (p : Core.value) -> p.Core.v_typ <- Typ.memref [ 3; 3 ] Typ.F32)
    (Core.func_args f);
  let run engine =
    Interp.Eval.run_func ~engine f (List.init 3 (fun _ -> B.create [ 3; 3 ]))
  in
  (match run Interp.Eval.Walk with
  | () -> Alcotest.fail "walk: expected out-of-bounds"
  | exception Invalid_argument _ -> ());
  match run Interp.Eval.Compiled with
  | () -> Alcotest.fail "compiled: expected out-of-bounds"
  | exception Support.Diag.Error (loc, msg) ->
      let accesses = ref [] in
      Core.walk f (fun op ->
          if op.Core.o_name = "affine.load" || op.Core.o_name = "affine.store"
          then accesses := Support.Loc.to_string op.Core.o_loc :: !accesses);
      Alcotest.(check bool)
        ("located at an access: " ^ Support.Loc.to_string loc)
        true
        (Support.Loc.is_known loc
        && List.mem (Support.Loc.to_string loc) !accesses);
      Alcotest.(check bool) ("names index and extent: " ^ msg) true
        (Astring_contains.contains msg "index 3 out of bounds [0, 3) at dim")

(* ---- pipeline-level differential check --------------------------------- *)

let test_pipeline_check_semantics () =
  let src = W.mm ~ni:12 ~nj:12 ~nk:12 () in
  List.iter
    (fun config ->
      List.iter
        (fun engine ->
          let schedule = Mlt.Pipeline.Config config in
          if not (Mlt.Pipeline.check_schedule_semantics ~engine schedule src)
          then
            Alcotest.failf "%s changed semantics (engine %s)"
              (Mlt.Pipeline.config_name config)
              (Interp.Rt.engine_name engine))
        [ Interp.Eval.Walk; Interp.Eval.Compiled ])
    [ Mlt.Pipeline.Mlt_linalg; Mlt.Pipeline.Mlt_blas ]

let suite =
  [
    Alcotest.test_case "engines agree: all kernels, affine level" `Quick
      test_engines_agree_affine_level;
    Alcotest.test_case "engines agree: all kernels, scf level" `Quick
      test_engines_agree_scf_level;
    Alcotest.test_case "engines agree: all kernels, linalg level" `Quick
      test_engines_agree_linalg_level;
    Alcotest.test_case "engines agree: tiled (min-bound maps)" `Quick
      test_engines_agree_tiled;
    QCheck_alcotest.to_alcotest prop_random_programs_engines_agree;
    Alcotest.test_case "mm: every access statically proven in bounds" `Quick
      test_mm_compiles_fully_unchecked;
    Alcotest.test_case "compile once, execute many (dense frames)" `Quick
      test_frame_is_dense_and_reusable;
    Alcotest.test_case "unprovable index takes the checked fallback" `Quick
      test_unprovable_access_uses_checked_fallback;
    Alcotest.test_case "out-of-bounds detected by both engines" `Quick
      test_out_of_bounds_still_detected;
    Alcotest.test_case "pipeline differential check (both engines)" `Quick
      test_pipeline_check_semantics;
  ]
