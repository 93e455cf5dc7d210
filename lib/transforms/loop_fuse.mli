(** Loop fusion with the three Pluto heuristics (§V-B): [nofuse],
    [smartfuse] (fuse when loops share data, balancing locality and
    parallelism) and [maxfuse] (fuse whenever legal).

    Legality uses the same conservative syntactic test as MET's loop
    distribution, transposed: two adjacent loops with identical bounds
    may fuse iff every array written by one and accessed by the other is
    accessed with the same subscript pattern (map and induction-variable
    positions), so all cross-loop dependences are intra-iteration. *)

open Ir

type heuristic = No_fuse | Smart_fuse | Max_fuse

val heuristic_to_string : heuristic -> string

(** [run h root] repeatedly fuses adjacent eligible loops (recursively,
    fused bodies may expose further inner fusion). Returns the number of
    loop pairs fused. *)
val run : heuristic -> Core.op -> int
