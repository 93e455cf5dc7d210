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

(** [tile_all root ~size] tiles every maximal perfect nest under [root]
    uniformly with [size] in each tileable dimension. Nests of depth 1
    are left untouched. *)
val tile_all : Core.op -> size:int -> unit
