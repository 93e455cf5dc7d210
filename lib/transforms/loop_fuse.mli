(** Loop fusion with the three Pluto heuristics (§V-B): [nofuse],
    [smartfuse] (fuse when loops share data, balancing locality and
    parallelism) and [maxfuse] (fuse whenever legal).

    Two adjacent loops with identical bounds heading perfect nests of
    equal depth may fuse when every dependence from the first into the
    second ({!Affine.Dependence}) keeps a distance [>= 0] on the fused
    loop; a [*] distance refuses. *)

open Ir

type heuristic = No_fuse | Smart_fuse | Max_fuse

val heuristic_to_string : heuristic -> string

(** [run h root] repeatedly fuses adjacent eligible loops (recursively,
    fused bodies may expose further inner fusion). Returns the number of
    loop pairs fused. *)
val run : heuristic -> Core.op -> int
