(* Tests for the IR object graph, builder, verifier and printer. *)

open Ir
module A = Affine.Affine_ops

let mk_gemm ?(m = 4) ?(n = 4) ?(k = 4) () =
  let t = Typ.memref [ m; k ] Typ.F32 in
  let t2 = Typ.memref [ k; n ] Typ.F32 in
  let t3 = Typ.memref [ m; n ] Typ.F32 in
  let f =
    Core.create_func ~name:"gemm" ~arg_types:[ t; t2; t3 ]
      ~arg_hints:[ "A"; "B"; "C" ] ()
  in
  let[@warning "-8"] [ a; bv; c ] = Core.func_args f in
  let b = Builder.at_end (Core.func_entry f) in
  ignore
    (A.for_const b ~hint:"i" ~lb:0 ~ub:m (fun b i ->
         ignore
           (A.for_const b ~hint:"j" ~lb:0 ~ub:n (fun b j ->
                ignore
                  (A.for_const b ~hint:"k" ~lb:0 ~ub:k (fun b kv ->
                       let c0 = A.load_simple b c [ i; j ] in
                       let x = A.load_simple b a [ i; kv ] in
                       let y = A.load_simple b bv [ kv; j ] in
                       let p = Std_dialect.Arith.mulf b x y in
                       let s = Std_dialect.Arith.addf b p c0 in
                       ignore (A.store_simple b s c [ i; j ])))))));
  ignore (Builder.build b "func.return");
  f

let test_build_and_verify () =
  let f = mk_gemm () in
  match Verifier.verify_result f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verification failed: %s" e

let test_walk_counts () =
  let f = mk_gemm () in
  let fors = ref 0 and loads = ref 0 and stores = ref 0 in
  Core.walk f (fun op ->
      if A.is_for op then incr fors;
      if A.is_load op then incr loads;
      if A.is_store op then incr stores);
  Alcotest.(check int) "fors" 3 !fors;
  Alcotest.(check int) "loads" 3 !loads;
  Alcotest.(check int) "stores" 1 !stores

let test_printer_gemm () =
  let f = mk_gemm () in
  let s = Printer.op_to_string f in
  List.iter
    (fun fragment ->
      if not (Astring_contains.contains s fragment) then
        Alcotest.failf "printed IR missing %S in:\n%s" fragment s)
    [
      "func.func @gemm(";
      "affine.for %i = 0 to 4";
      "affine.load %C[%i, %j] : memref<4x4xf32>";
      "arith.mulf";
      "affine.store";
      "func.return";
    ]

let test_uses_and_replace () =
  let f = mk_gemm () in
  let c = List.nth (Core.func_args f) 2 in
  let uses = Core.uses f c in
  (* C is used by one load and one store. *)
  Alcotest.(check int) "uses of C" 2 (List.length uses);
  (* Replace C by A everywhere; C now unused. *)
  let a = List.hd (Core.func_args f) in
  Core.replace_uses f ~old_v:c ~new_v:a;
  Alcotest.(check int) "uses of C after" 0 (List.length (Core.uses f c))

let test_insert_detach () =
  let f = mk_gemm () in
  let entry = Core.func_entry f in
  let first = List.hd (Core.ops_of_block entry) in
  let b = Builder.before first in
  let v = Std_dialect.Arith.constant_float b 1.0 in
  (match Core.defining_op v with
  | Some op ->
      Alcotest.(check bool) "inserted before" true
        (Core.op_equal (List.hd (Core.ops_of_block entry)) op);
      Core.detach_op op;
      Alcotest.(check bool) "detached" true (op.o_parent = None)
  | None -> Alcotest.fail "constant should have a defining op");
  Alcotest.(check int) "block size restored" 2
    (List.length (Core.ops_of_block entry))

let test_clone_independent () =
  let f = mk_gemm () in
  let g = Core.clone_op f in
  (* Mutating the clone must not affect the original. *)
  let loops = Affine.Loops.all_loops g in
  List.iter Core.erase_op loops;
  Alcotest.(check int) "original still has loops" 3
    (List.length (Affine.Loops.all_loops f));
  Alcotest.(check int) "clone emptied" 0
    (List.length (Affine.Loops.all_loops g))

let test_clone_remaps_operands () =
  let f = mk_gemm () in
  let g = Core.clone_op f in
  (* Every operand referenced inside the clone must be a value created by
     the clone (function args or inner results), never the original's. *)
  let original_values = Hashtbl.create 64 in
  Core.walk f (fun op ->
      Array.iter
        (fun (r : Core.value) -> Hashtbl.replace original_values r.v_id ())
        op.o_results);
  List.iter
    (fun (a : Core.value) -> Hashtbl.replace original_values a.v_id ())
    (Core.func_args f);
  Core.walk g (fun op ->
      Array.iter
        (fun (v : Core.value) ->
          if Hashtbl.mem original_values v.v_id then
            Alcotest.failf "clone leaked original value %s"
              (Printer.debug_value v))
        op.o_operands)

let test_verifier_catches_bad_type () =
  let f = mk_gemm () in
  (* Build an addf with mismatched types by hand. *)
  let entry = Core.func_entry f in
  let b = Builder.at_end entry in
  let c1 = Std_dialect.Arith.constant_float b 1.0 in
  let idx = Std_dialect.Arith.constant_index b 0 in
  let bad =
    Core.create_op ~operands:[ c1; idx ] ~result_types:[ Typ.F32 ]
      "arith.addf"
  in
  Core.append_op entry bad;
  match Verifier.verify_result f with
  | Ok () -> Alcotest.fail "expected verification failure"
  | Error _ -> ()

let test_verifier_catches_scope_violation () =
  let f = mk_gemm () in
  (* Use an induction variable outside its loop. *)
  let loop = List.hd (Affine.Loops.top_level_loops f) in
  let iv = A.for_iv loop in
  let b = Builder.at_end (Core.func_entry f) in
  let map = Affine_map.identity 1 in
  ignore (A.apply b map [ iv ]);
  match Verifier.verify_result f with
  | Ok () -> Alcotest.fail "expected scope violation"
  | Error _ -> ()

let test_use_lists_track_mutation () =
  let f = mk_gemm () in
  let c = List.nth (Core.func_args f) 2 in
  Alcotest.(check bool) "has_uses" true (Core.has_uses f c);
  (* Detached users don't count as uses under [f]. *)
  let load, idx =
    match Core.uses f c with
    | (load, idx) :: _ -> (load, idx)
    | [] -> Alcotest.fail "expected users of C"
  in
  Core.detach_op load;
  Alcotest.(check int) "uses of C after detach" 1
    (List.length (Core.uses f c));
  (* Reattach and redirect one operand; the use moves lists. *)
  Core.append_op (Core.func_entry f) load;
  let a = List.hd (Core.func_args f) in
  Core.set_operand load idx a;
  Alcotest.(check int) "uses of C after set_operand" 1
    (List.length (Core.uses f c));
  Alcotest.(check bool) "A gained the use" true
    (List.exists (fun (o, i) -> Core.op_equal o load && i = idx)
       (Core.uses f a));
  (* Erasing a user scrubs its use-list entries. *)
  Core.erase_op load;
  Alcotest.(check bool) "no dangling entry after erase" false
    (List.exists (fun (o, _) -> Core.op_equal o load) a.Core.v_uses)

let test_erase_scrubs_nested_uses () =
  let f = mk_gemm () in
  let c = List.nth (Core.func_args f) 2 in
  (* The users of C live deep inside the loop nest; erasing the outer
     loop must remove them from C's use-list. *)
  let outer = List.hd (Affine.Loops.top_level_loops f) in
  Core.erase_op outer;
  Alcotest.(check bool) "C unused after nest erase" false
    (Core.has_uses f c);
  Alcotest.(check int) "raw use-list scrubbed" 0 (List.length c.Core.v_uses)

(* Nothing outside a module points into it, so a module that is dropped
   without [erase_op] is garbage once unreachable — also after a
   pipeline has rewritten it. *)
let test_dropped_module_collected () =
  let src = Workloads.Polybench.gemm ~ni:8 ~nj:8 ~nk:8 () in
  let w = Weak.create 2 in
  let[@inline never] build () =
    Weak.set w 0 (Some (Met.Emit_affine.translate src));
    Weak.set w 1
      (Some
         (Mlt.Pipeline.prepare_schedule
            (Mlt.Pipeline.Config Mlt.Pipeline.Mlt_blas) src))
  in
  build ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped module reclaimed" false (Weak.check w 0);
  Alcotest.(check bool) "dropped pipeline output reclaimed" false
    (Weak.check w 1)

(* Parent links are plain pointers: an op's owner reads the same from a
   domain other than the one that built the IR. *)
let test_parent_op_across_domains () =
  let m = Core.create_module () in
  let f = mk_gemm () in
  Core.append_op (Core.module_block m) f;
  let outer = List.hd (Affine.Loops.top_level_loops f) in
  let inner = List.hd (Core.ops_of_block (Core.single_block outer 0)) in
  let here = Core.parent_op inner in
  let there, under =
    Domain.join
      (Domain.spawn (fun () -> (Core.parent_op inner, Core.is_under ~root:m inner)))
  in
  Alcotest.(check bool) "owner is the outer loop" true
    (match here with Some p -> p == outer | None -> false);
  Alcotest.(check bool) "same owner on another domain" true
    (match (here, there) with Some a, Some b -> a == b | _ -> false);
  Alcotest.(check bool) "is_under from another domain" true under

let test_append_many_then_read () =
  (* O(1) appends flush correctly and preserve order across interleaved
     reads and inserts. *)
  let blk = Core.create_block [] in
  let b = Builder.at_end blk in
  let n = 2000 in
  for i = 0 to n - 1 do
    ignore (Std_dialect.Arith.constant_float b (float_of_int i))
  done;
  let ops = Core.ops_of_block blk in
  Alcotest.(check int) "count" n (List.length ops);
  let in_order =
    List.mapi
      (fun i op -> Std_dialect.Arith.constant_float_value op = Some (float_of_int i))
      ops
  in
  Alcotest.(check bool) "order preserved" true (List.for_all Fun.id in_order);
  (* Insert relative to an op that was sitting in the pending tail. *)
  let anchor = List.nth ops 1000 in
  let ib = Builder.before anchor in
  ignore (Std_dialect.Arith.constant_float ib (-1.0));
  Alcotest.(check int) "count after insert" (n + 1)
    (List.length (Core.ops_of_block blk))

let test_module_func_lookup () =
  let m = Core.create_module () in
  let f = mk_gemm () in
  Core.append_op (Core.module_block m) f;
  (match Core.find_func m "gemm" with
  | Some g -> Alcotest.(check string) "name" "gemm" (Core.func_name g)
  | None -> Alcotest.fail "find_func failed");
  Alcotest.(check bool) "missing" true (Core.find_func m "nope" = None)

let test_loops_utilities () =
  let f = mk_gemm () in
  let top = Affine.Loops.top_level_loops f in
  Alcotest.(check int) "one top-level nest" 1 (List.length top);
  let nest = Affine.Loops.perfect_nest (List.hd top) in
  Alcotest.(check int) "depth 3" 3 (List.length nest);
  let _, body = Affine.Loops.nest_with_body (List.hd top) in
  Alcotest.(check int) "body ops" 6 (List.length body);
  match Affine.Loops.nest_trip_counts nest with
  | Some counts -> Alcotest.(check (list int)) "trips" [ 4; 4; 4 ] counts
  | None -> Alcotest.fail "expected constant trip counts"

let suite =
  [
    Alcotest.test_case "build gemm and verify" `Quick test_build_and_verify;
    Alcotest.test_case "walk counts ops" `Quick test_walk_counts;
    Alcotest.test_case "printer output" `Quick test_printer_gemm;
    Alcotest.test_case "uses and replace" `Quick test_uses_and_replace;
    Alcotest.test_case "use-lists track mutation" `Quick
      test_use_lists_track_mutation;
    Alcotest.test_case "erase scrubs nested uses" `Quick
      test_erase_scrubs_nested_uses;
    Alcotest.test_case "dropped module is reclaimed by the GC" `Quick
      test_dropped_module_collected;
    Alcotest.test_case "parent_op answers the same on every domain" `Quick
      test_parent_op_across_domains;
    Alcotest.test_case "O(1) append flushes in order" `Quick
      test_append_many_then_read;
    Alcotest.test_case "insert and detach" `Quick test_insert_detach;
    Alcotest.test_case "clone is independent" `Quick test_clone_independent;
    Alcotest.test_case "clone remaps operands" `Quick test_clone_remaps_operands;
    Alcotest.test_case "verifier: bad operand type" `Quick
      test_verifier_catches_bad_type;
    Alcotest.test_case "verifier: scope violation" `Quick
      test_verifier_catches_scope_violation;
    Alcotest.test_case "module and func lookup" `Quick test_module_func_lookup;
    Alcotest.test_case "loop utilities" `Quick test_loops_utilities;
  ]
