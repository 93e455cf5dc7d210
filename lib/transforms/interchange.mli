(** Loop interchange for vectorization: rotate a unit-stride loop to the
    innermost position of a perfect nest, the transformation Pluto's
    autotuned configurations apply to expose vectorizable inner loops
    (§5.2 observes it on abc-bda-dc).

    The rotation is legal when it keeps every dependence
    ({!Affine.Dependence}) lexicographically positive. A reduction's
    accumulator ([X\[s\] = X\[s\] + f(...)]) reorders under
    reassociation, which Pluto also assumes
    ({!Affine.Dependence.violation}). *)

open Ir

(** [vectorize_func f] rotates eligible nests so a stride-{0,1} loop is
    innermost; returns the number of nests changed. Apply before tiling. *)
val vectorize_func : Core.op -> int
