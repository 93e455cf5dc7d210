open Ir

type config = { tile : int; fusion : Loop_fuse.heuristic; vectorize : bool }

let default_config =
  { tile = 32; fusion = Loop_fuse.Smart_fuse; vectorize = false }

let config_to_string c =
  Printf.sprintf "tile=%d,%s%s" c.tile
    (Loop_fuse.heuristic_to_string c.fusion)
    (if c.vectorize then ",vec" else "")

let apply config root =
  ignore (Loop_fuse.run config.fusion root);
  if config.vectorize then begin
    ignore (Interchange.vectorize_func root);
    (* Interchange of reduction loops assumes reassociation; mark the
       code as compiled with fast-math so the machine model may also
       vectorize reductions (multiple accumulators). *)
    Core.walk root (fun op ->
        if Core.is_func op then
          Core.set_attr op "fast_math" (Attr.Bool true))
  end;
  if config.tile > 1 then Loop_tile.tile_all root ~size:config.tile

let sweep_configs ~max_trip =
  let rec sizes acc t =
    if t > max 8 (max_trip / 4) then List.rev acc else sizes (t :: acc) (t * 2)
  in
  (* tile = 1 keeps the loops untiled (fusion/interchange only). *)
  let tiles = 1 :: sizes [] 4 in
  default_config
  :: List.concat_map
       (fun vectorize ->
         List.concat_map
           (fun fusion ->
             List.map (fun tile -> { tile; fusion; vectorize }) tiles)
           [ Loop_fuse.No_fuse; Loop_fuse.Smart_fuse; Loop_fuse.Max_fuse ])
       [ false; true ]
