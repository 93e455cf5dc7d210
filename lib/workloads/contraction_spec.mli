(** Tensor-contraction specifications in the paper's notation, e.g.
    ["abc-acd-db"] for [C(a,b,c) += A(a,c,d) * B(d,b)] (output indices,
    then the two input index groups, dash-separated). *)

type t = {
  out : char list;
  in1 : char list;
  in2 : char list;
}

(** [parse "abc-acd-db"] — raises {!Support.Diag.Error} on malformed specs
    (repeated indices within a group, an output index missing from both
    inputs, or an input index that appears nowhere else, i.e. a broadcast
    rather than a contraction). *)
val parse : string -> t

val to_string : t -> string

(** Indices summed over: in the inputs but not the output. *)
val contracted : t -> char list

(** All distinct indices in order of first appearance (out, in1, in2) —
    the canonical loop order of the generated kernel. *)
val all_indices : t -> char list

(** The free indices of [in1]/[in2] (shared with the output), in output
    order — the M/N groups of a TTGT mapping. *)
val free1 : t -> char list

val free2 : t -> char list

(** [c_source spec ~sizes ~name] generates the mini-C kernel: a zero
    initialization nest for the output followed by the contraction nest
    (Listing 2 of the paper). [sizes] assigns an extent to every index. *)
val c_source :
  t -> sizes:(char * int) list -> ?init:bool -> name:string -> unit -> string

(** Scalar multiplications performed by the contraction nest. *)
val flops : t -> sizes:(char * int) list -> float

(** The seven contraction benchmarks of Figure 9, with the scaled-down
    default sizes used in our reproduction: name, spec, sizes. *)
val paper_benchmarks : unit -> (string * t * (char * int) list) list
