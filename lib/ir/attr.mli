(** Attributes attach compile-time information to operations. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Type of Typ.t
  | Ints of int list
  | Map of Affine_map.t
  | Grouping of int list list
      (** reshape dimension grouping, e.g. [{{0,1},2}] *)
  | List of t list

(** Structural equality with a physical ([==]) fast path at every node;
    monomorphic (no polymorphic compare) and length-guarded on lists.
    [Float] payloads compare by their bits: [-0.] and [0.] differ, and a
    NaN equals a NaN of the same payload. Two ops whose attributes are
    equal compute alike. *)
val equal : t -> t -> bool

(** [add_to_buffer b x] appends the textual form of [x] to [b]: the one
    printer of this type, which {!Printer} calls directly; [pp] and
    [to_string] are derived from it. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {2 Typed accessors} — raise [Invalid_argument] on kind mismatch. *)

val get_int : t -> int
val get_float : t -> float
val get_str : t -> string
val get_ints : t -> int list
val get_map : t -> Affine_map.t
val get_grouping : t -> int list list
val get_list : t -> t list
