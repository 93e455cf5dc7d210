(** Insertion-point-based IR construction, in the style of MLIR's OpBuilder.

    A builder owns a mutable insertion point; [insert] places a detached
    operation there. Dialect libraries provide typed helpers layered on
    top of [insert] (e.g. [Affine_dialect.For.build]). *)

type point =
  | At_end of Core.block
  | Before of Core.op
  | After of Core.op  (** subsequent inserts keep appending after *)

type t

val create : point -> t
val at_end : Core.block -> t
val before : Core.op -> t

(** [insert b op] attaches [op] at the insertion point and returns it. *)
val insert : t -> Core.op -> Core.op

(** [build b name ...] creates and inserts in one step. *)
val build :
  t ->
  ?operands:Core.value list ->
  ?result_types:Typ.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:Core.region list ->
  string ->
  Core.op

(** [nested b op region_index] is a builder appending into the sole block of
    the given region of [op]. *)
val nested : t -> Core.op -> int -> t
