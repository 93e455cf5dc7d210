(** The Pluto substitute: source-to-source polyhedral-style optimization
    as a combination of loop fusion (by heuristic) followed by rectangular
    tiling — the transformation space the paper's Pluto baseline explores.

    [Pluto-default] is tile size 32 with the [smartfuse] heuristic;
    [Pluto-best] sweeps tile sizes and fusion heuristics and keeps the
    best-scoring variant (the paper sweeps >3000 combinations over days of
    autotuning; our sweep is a small grid scored on the machine model,
    which preserves the "best of the transformation space" role).

    A configuration runs as the transform-script steps
    {!Transform.Script.of_pluto} elaborates it to: fusion, then (with
    [vectorize]) vectorizing interchange, then (with [tile > 1]) tiling. *)

type config = { tile : int; fusion : Loop_fuse.heuristic; vectorize : bool }

val default_config : config

val config_to_string : config -> string

(** The sweep grid for Pluto-best: tile sizes from 4 up to roughly a
    quarter of [max_trip], times the three fusion heuristics, times
    interchange on/off. *)
val sweep_configs : max_trip:int -> config list
