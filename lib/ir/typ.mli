(** IR types.

    The reproduction uses buffer (memref) semantics throughout, matching the
    2020-era Linalg-on-buffers setting the paper evaluates. *)

type dim = Static of int | Dynamic

type t =
  | F32
  | F64
  | I1
  | I32
  | I64
  | Index  (** loop induction variables and subscripts *)
  | Mem_ref of dim list * t  (** shaped buffer of a scalar element type *)
  | Fun of t list * t list

val is_scalar : t -> bool
val is_float : t -> bool
val is_int : t -> bool

(** [memref shape elem] with [shape] given as static extents. *)
val memref : int list -> t -> t

(** [memref_rank t] for a memref type; raises [Invalid_argument] otherwise. *)
val memref_rank : t -> int

val memref_elem : t -> t

(** [static_shape t] returns the extents when all dimensions are static. *)
val static_shape : t -> int list option

(** Number of elements of a fully static memref. *)
val num_elements : t -> int option

(** Structural equality with a physical ([==]) fast path at every node;
    monomorphic throughout (no polymorphic compare). *)
val equal : t -> t -> bool

(** [add_to_buffer b x] appends the textual form of [x] to [b]: the one
    printer of this type, which {!Printer} calls directly; [pp] and
    [to_string] are derived from it. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
