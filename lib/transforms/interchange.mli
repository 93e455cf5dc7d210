(** Loop interchange for vectorization: rotate a unit-stride loop to the
    innermost position of a perfect nest, the transformation Pluto's
    autotuned configurations apply to expose vectorizable inner loops
    (§5.2 observes it on abc-bda-dc).

    Legality is established syntactically for the nests this reproduction
    manipulates: the nest body must be a single {e reduction} statement
    [X[s] = X[s] + f(reads of other arrays)] (any iteration order yields
    the same sum up to floating-point reassociation, which Pluto also
    assumes) or a {e copy/init} statement writing [X] without reading it
    through a different subscript. Anything else is left untouched. *)

open Ir

(** [vectorize_func f] rotates eligible nests so a stride-{0,1} loop is
    innermost; returns the number of nests changed. Apply before tiling. *)
val vectorize_func : Core.op -> int

(** Exposed for tests: is this single-statement nest body a permutable
    reduction/copy? *)
val permutable_body : Core.block -> bool
