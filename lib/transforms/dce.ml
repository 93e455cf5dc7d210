open Ir
module A = Affine.Affine_ops

(* Does [op] only write buffer [buf] (no reads, no other effects)? Such
   writers die with the buffer. *)
let pure_writer_of (buf : Core.value) (op : Core.op) =
  match op.o_name with
  | "affine.store" -> Core.value_equal (A.access_memref op) buf
  | "memref.dealloc" -> Core.value_equal (Core.operand op 0) buf
  | _ -> (
      (* A structured op writes its destination and reads the rest. *)
      match Structured.destination op with
      | Some out ->
          let reads = Array.sub op.o_operands 0 (Core.num_operands op - 1) in
          Core.value_equal out buf
          && not (Array.exists (Core.value_equal buf) reads)
      | None -> false)

let has_side_effects (op : Core.op) =
  match op.o_name with
  | "arith.constant" | "affine.apply" | "affine.load" | "memref.alloc" ->
      false
  | name when List.mem name Std_dialect.Arith.float_binops -> false
  | "arith.addi" | "arith.subi" | "arith.muli" -> false
  | _ -> true

(* DCE as a rewrite pattern, for composing into combined greedy sets
   (e.g. a progressive-raising set where erasing a loop nest leaves its
   index arithmetic dead, which would otherwise block exact-block
   structural matching on sibling nests). Only handles the pure-scalar
   case; dead buffers and empty loops still need [run]. Benefit 0 so
   every real rewrite at an op is tried first. *)
let pattern () =
  Rewriter.pattern ~name:"erase-dead-pure-op" ~benefit:0
    ~roots:
      (Rewriter.Roots
         ([ "arith.constant"; "affine.apply"; "affine.load" ]
         @ Std_dialect.Arith.float_binops
         @ [ "arith.addi"; "arith.subi"; "arith.muli" ]))
    (fun ctx op ->
      if
        (not (has_side_effects op))
        && (not (Std_dialect.Memref_ops.is_alloc op))
        && Core.num_results op > 0
        && Array.for_all
             (fun (r : Core.value) -> not (Core.has_uses ctx.Rewriter.root r))
             op.o_results
      then begin
        Core.erase_op op;
        true
      end
      else false)

let run root =
  let erased = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    (* Pure ops with no uses. *)
    let to_erase = ref [] in
    Core.walk root (fun op ->
        if
          op != root
          && (not (has_side_effects op))
          && Array.for_all
               (fun (r : Core.value) -> not (Core.has_uses root r))
               op.o_results
          && Core.num_results op > 0
        then to_erase := op :: !to_erase);
    List.iter
      (fun op ->
        if op.Core.o_parent <> None then begin
          Core.erase_op op;
          incr erased;
          progress := true
        end)
      !to_erase;
    (* Loops whose bodies became empty. *)
    let empty_loops = ref [] in
    Core.walk root (fun op ->
        if A.is_for op && Affine.Loops.body_ops op = [] then
          empty_loops := op :: !empty_loops);
    List.iter
      (fun op ->
        if op.Core.o_parent <> None then begin
          Core.erase_op op;
          incr erased;
          progress := true
        end)
      !empty_loops;
    (* Dead buffers: allocs all of whose users are pure writers. *)
    let allocs = ref [] in
    Core.walk root (fun op ->
        if Std_dialect.Memref_ops.is_alloc op then allocs := op :: !allocs);
    List.iter
      (fun alloc ->
        let buf = Core.result alloc 0 in
        let users = List.map fst (Core.uses root buf) in
        if users <> [] && List.for_all (pure_writer_of buf) users then begin
          List.iter
            (fun u ->
              if u.Core.o_parent <> None then begin
                Core.erase_op u;
                incr erased
              end)
            users;
          Core.erase_op alloc;
          incr erased;
          progress := true
        end)
      !allocs
  done;
  !erased
