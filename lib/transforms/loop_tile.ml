open Ir
module A = Affine.Affine_ops
module D = Support.Diag

let const_bounds loop =
  match A.for_const_bounds loop with
  | Some (0, ub) when A.for_step loop = 1 -> ub
  | _ ->
      D.errorf ~loc:(Core.nearest_loc loop)
        "tile: loop bounds must be constant, zero-based, unit-step"

let tile_nest loops ~sizes =
  if List.length loops <> List.length sizes then
    invalid_arg "tile_nest: sizes do not pair with loops";
  let outermost = List.hd loops in
  let ubs = List.map const_bounds loops in
  let innermost = List.nth loops (List.length loops - 1) in
  let body_ops = Affine.Loops.body_ops innermost in
  let old_ivs = Affine.Loops.nest_ivs loops in
  (* Effective tiling decision per loop. *)
  let tiled =
    List.map2 (fun ub size -> size > 1 && size < ub) ubs sizes
  in
  let b = Builder.before outermost in
  (* Each tile loop and point loop is built under the location of the
     loop it replaces. *)
  let at loop f = Core.with_loc (Core.op_loc loop) f in
  (* Phase 1: tile loops for the tiled dimensions. *)
  let rec build_tiles b acc = function
    | [] -> build_points b acc []
    | (loop, (ub, (size, is_tiled))) :: rest ->
        if is_tiled then
          at loop (fun () ->
              ignore
                (A.for_ b ~hint:"it"
                   ~lb:(Affine_map.constant_map [ 0 ], [])
                   ~ub:(Affine_map.constant_map [ ub ], [])
                   ~step:size
                   (fun b tile_iv ->
                     build_tiles b (acc @ [ Some tile_iv ]) rest)))
        else build_tiles b (acc @ [ None ]) rest
  (* Phase 2: point loops, one per original loop. *)
  and build_points b tile_ivs new_ivs =
    match tile_ivs with
    | [] ->
        (* Move the body and substitute ivs. *)
        List.iter
          (fun op ->
            Core.detach_op op;
            ignore (Builder.insert b op))
          body_ops;
        List.iter2
          (fun old_iv new_iv ->
            List.iter
              (fun op -> Core.replace_uses op ~old_v:old_iv ~new_v:new_iv)
              body_ops)
          old_ivs (List.rev new_ivs)
    | tv :: rest ->
        let idx = List.length new_ivs in
        let ub = List.nth ubs idx and size = List.nth sizes idx in
        at (List.nth loops idx) @@ fun () ->
        (match tv with
        | Some tile_iv ->
            (* for %p = %t to min(%t + size, ub) *)
            ignore
              (A.for_ b ~hint:"i"
                 ~lb:(Affine_map.make ~n_dims:1 [ Affine_expr.dim 0 ], [ tile_iv ])
                 ~ub:
                   ( Affine_map.make ~n_dims:1
                       [
                         Affine_expr.add (Affine_expr.dim 0)
                           (Affine_expr.const size);
                         Affine_expr.const ub;
                       ],
                     [ tile_iv ] )
                 (fun b iv -> build_points b rest (iv :: new_ivs)))
        | None ->
            ignore
              (A.for_const b ~hint:"i" ~lb:0 ~ub (fun b iv ->
                   build_points b rest (iv :: new_ivs))))
  in
  build_tiles b []
    (List.combine loops (List.combine ubs (List.combine sizes tiled)));
  Core.erase_op outermost

(* One size tiles every dimension; a list pairs with the nest's loops
   outermost-first, truncated to its depth or padded with 1 (untiled). *)
let fit_sizes sizes depth =
  match sizes with
  | [ size ] -> List.init depth (fun _ -> size)
  | sizes ->
      List.init depth (fun i ->
          Option.value (List.nth_opt sizes i) ~default:1)

let tile_nests root ~sizes =
  (* Tile each maximal perfect nest of depth > 1; recurse into depth-1
     loops to find deeper nests in imperfectly nested code. *)
  let tiled = ref 0 in
  let rec process (op : Core.op) =
    if A.is_for op then begin
      let loops = Affine.Loops.perfect_nest op in
      let depth = List.length loops in
      if depth > 1 && Affine.Loops.nest_trip_counts loops <> None then begin
        tile_nest loops ~sizes:(fit_sizes sizes depth);
        incr tiled
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
  process root;
  !tiled

let tile_all root ~size = ignore (tile_nests root ~sizes:[ size ])
