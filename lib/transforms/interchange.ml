open Ir
module A = Affine.Affine_ops

let rotate_nest loops ~inner =
  (* Rebuild the nest with [inner] moved to the innermost position. *)
  let outermost = List.hd loops in
  let innermost_old = List.nth loops (List.length loops - 1) in
  let body_ops = Affine.Loops.body_ops innermost_old in
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
        let body_ops = Affine.Loops.body_ops innermost in
        let ivs = Affine.Dependence.ivs_around innermost @ [ A.for_iv innermost ] in
        let outer = List.length ivs - depth in
        let vectorizable l =
          Affine.Loops.vectorizable_wrt (A.for_iv l) body_ops
        in
        if not (vectorizable innermost) then
          (* Deepest vectorizable loop wins (better locality outside). *)
          match List.rev loops |> List.find_opt vectorizable with
          | Some candidate ->
              (* Moving it innermost must keep every dependence
                 lexicographically positive; a reduction's accumulator
                 reorders under reassociation. *)
              let at =
                outer + Option.get (List.find_index (Core.op_equal candidate) loops)
              in
              if
                Option.is_none
                  Affine.Dependence.(
                    violation ~ok:(rotatable ~at) (ivs, body_ops))
              then begin
                rotate_nest loops ~inner:candidate;
                incr changed
              end
          | None -> ()
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
