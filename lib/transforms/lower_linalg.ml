open Ir
module A = Affine.Affine_ops
module L = Linalg.Linalg_ops
module D = Support.Diag

let lower_op ?tile_size (ctx : Rewriter.ctx) (op : Core.op) =
  (* Track the loops this lowering creates so they can be tiled without
     touching surrounding code. *)
  let parent_block =
    match op.o_parent with
    | Some blk -> blk
    | None -> D.errorf "lower-linalg: op is detached"
  in
  let before = Core.ops_of_block parent_block in
  let handled = Linalg.Lowering.lower ctx.builder op op.o_operands in
  if handled then begin
    Core.erase_op op;
    match tile_size with
    | Some size ->
        let created =
          List.filter
            (fun (o : Core.op) ->
              A.is_for o && not (List.exists (Core.op_equal o) before))
            (Core.ops_of_block parent_block)
        in
        List.iter
          (fun outer ->
            let loops = Affine.Loops.perfect_nest outer in
            if
              List.length loops > 1
              && Affine.Loops.nest_trip_counts loops <> None
            then
              Loop_tile.tile_nest loops
                ~sizes:(List.map (fun _ -> size) loops))
          created
    | None -> ()
  end;
  handled

let linalg_roots = Rewriter.Roots L.names

let patterns () =
  [
    Rewriter.pattern ~name:"lower-linalg" ~roots:linalg_roots
      (lower_op ?tile_size:None);
  ]

let frozen = Rewriter.freeze (patterns ())
let run root = ignore (Rewriter.apply_sweeps root frozen)

let run_tiled ~size root =
  ignore
    (Rewriter.apply_sweeps root
       (Rewriter.freeze
          [
            Rewriter.pattern ~name:"lower-linalg-tiled" ~roots:linalg_roots
              (lower_op ~tile_size:size);
          ]))
