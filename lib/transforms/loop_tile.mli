(** Rectangular loop tiling (strip-mine + interchange) over perfect affine
    nests with constant zero-based unit-step bounds. Edge tiles use
    multi-expression [min] upper bounds, so sizes need not divide trip
    counts. The substrate of both the Pluto substitute and the MLT-Linalg
    tiled lowering path. *)

open Ir

(** [tile_nest loops ~sizes] rewrites the nest in place (the new loops
    replace the old outermost loop in its block). [sizes] pairs with
    [loops] outermost-first; a size [<= 1] (or a size larger or equal to
    the trip count) leaves that loop point-only (no tile loop emitted).
    Raises {!Support.Diag.Error} on non-constant bounds. *)
val tile_nest : Core.op list -> sizes:int list -> unit

(** [tile_nests root ~sizes] tiles every maximal perfect nest of depth
    > 1 with constant trip counts under [root] and returns how many it
    tiled. One size tiles every dimension; otherwise [sizes] pairs with
    each nest's loops outermost-first, truncated to its depth or padded
    with 1 (untiled). Depth-1 loops are searched for deeper nests. A
    nest whose tiling would reorder its iterations is tiled only when it
    is a permutable band ({!Affine.Dependence.permutable}, reductions
    reassociating); otherwise it is skipped with a [missed] remark at
    the nest (stage ["dependence"]) naming the accesses and their
    distance vector. Bounds are checked first: a nest with constant
    trip counts whose loops are not all zero-based and unit-step raises
    {!Support.Diag.Error} whether or not it is permutable. [tile_nest] asks nothing:
    {!Lower_linalg} tiles the nests it builds, permutable by
    construction. *)
val tile_nests : Core.op -> sizes:int list -> int

(** [tile_all root ~size] = [tile_nests root ~sizes:[size]], count
    dropped. *)
val tile_all : Core.op -> size:int -> unit
