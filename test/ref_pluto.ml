(* The legacy Pluto oracle: one [Transforms.Pluto.config] applied by
   direct calls, as the pipeline did before configurations became
   transform scripts. [Transform.Script.of_pluto]'s elaboration must
   produce the same IR (test_transform_dialect), and the tuner's sweep
   the same winner (test_tune). *)

open Ir
module T = Transforms

(* [apply config root] transforms in place: fusion, then (optionally)
   vectorizing interchange, then tiling. *)
let apply (config : T.Pluto.config) root =
  ignore (T.Loop_fuse.run config.fusion root);
  if config.vectorize then begin
    ignore (T.Interchange.vectorize_func root);
    (* Interchange of reduction loops assumes reassociation; mark the
       code as compiled with fast-math so the machine model may also
       vectorize reductions (multiple accumulators). *)
    Core.walk root (fun op ->
        if Core.is_func op then Core.set_attr op "fast_math" (Attr.Bool true))
  end;
  if config.tile > 1 then T.Loop_tile.tile_all root ~size:config.tile
