open Ir
module A = Affine.Affine_ops

let non_yield (b : Core.block) =
  List.filter
    (fun (o : Core.op) -> not (String.equal o.o_name "affine.yield"))
    (Core.ops_of_block b)

let access_sig op =
  ( (A.access_memref op).Core.v_id,
    Affine_map.to_string (A.access_map op),
    List.map (fun (v : Core.value) -> v.Core.v_id) (A.access_indices op) )

let permutable_body (b : Core.block) =
  let ops = non_yield b in
  let stores = List.filter A.is_store ops in
  let loads = List.filter A.is_load ops in
  let arith_ok =
    List.for_all
      (fun (o : Core.op) ->
        A.is_store o || A.is_load o
        || List.mem o.o_name Std_dialect.Arith.float_binops
        || Std_dialect.Arith.is_constant o)
      ops
  in
  match stores with
  | [ store ] ->
      arith_ok
      &&
      let target = (A.access_memref store).Core.v_id in
      let store_sig = access_sig store in
      (* Loads from the written array must be the accumulator (identical
         subscripts); loads from other arrays are unrestricted. *)
      List.for_all
        (fun ld ->
          let memref, _, _ = access_sig ld in
          memref <> target
          ||
          let m, map, idx = access_sig ld in
          let m', map', idx' = store_sig in
          m = m' && map = map' && idx = idx')
        loads
  | _ -> false

let rotate_nest loops ~inner =
  (* Rebuild the nest with [inner] moved to the innermost position. *)
  let outermost = List.hd loops in
  let innermost_old = List.nth loops (List.length loops - 1) in
  let body_ops = non_yield (A.for_body innermost_old) in
  let order = List.filter (fun l -> not (Core.op_equal l inner)) loops @ [ inner ] in
  let b = Builder.before outermost in
  let rec build b built = function
    | [] ->
        List.iter
          (fun op ->
            Core.detach_op op;
            ignore (Builder.insert b op))
          body_ops;
        List.iter
          (fun (old_loop, new_iv) ->
            let old_iv = A.for_iv old_loop in
            List.iter
              (fun op -> Core.replace_uses op ~old_v:old_iv ~new_v:new_iv)
              body_ops)
          built
    | loop :: rest ->
        let lb, ub =
          match A.for_const_bounds loop with
          | Some b -> b
          | None -> assert false
        in
        let hint =
          Option.value ~default:"i" (A.for_iv loop).Core.v_hint
        in
        ignore
          (A.for_const b ~hint ~lb ~ub ~step:(A.for_step loop) (fun b iv ->
               build b ((loop, iv) :: built) rest))
  in
  build b [] order;
  Core.erase_op outermost

let vectorize_func func =
  let changed = ref 0 in
  let rec process (op : Core.op) =
    if A.is_for op then begin
      let loops = Affine.Loops.perfect_nest op in
      let depth = List.length loops in
      if depth > 1 && Affine.Loops.nest_trip_counts loops <> None then begin
        let innermost = List.nth loops (depth - 1) in
        let body = A.for_body innermost in
        if permutable_body body then begin
          let body_ops = non_yield body in
          let vectorizable l =
            Affine.Loops.vectorizable_wrt (A.for_iv l) body_ops
          in
          if not (vectorizable innermost) then
            (* Deepest vectorizable loop wins (better locality outside). *)
            match List.rev loops |> List.find_opt vectorizable with
            | Some candidate ->
                rotate_nest loops ~inner:candidate;
                incr changed
            | None -> ()
        end
      end
      else if depth = 1 then List.iter process (Affine.Loops.body_ops op)
    end
    else
      Array.iter
        (fun (r : Core.region) ->
          List.iter
            (fun (blk : Core.block) -> List.iter process (Core.ops_of_block blk))
            r.r_blocks)
        op.Core.o_regions
  in
  process func;
  !changed
