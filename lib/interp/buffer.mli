(** Dense row-major float buffers backing memref values during
    interpretation. *)

type t = {
  shape : int array;
  strides : int array;  (** row-major, elements *)
  data : float array;
}

(** [create shape] — zero-initialized. *)
val create : int list -> t

(** [strides_of shape] — the row-major element strides of a shape. Exposed
    so the staged execution engine can precompute linear offsets from
    static memref types at compile time. *)
val strides_of : int array -> int array

(** [of_type t] for a fully static memref type. *)
val of_type : Ir.Typ.t -> t

val rank : t -> int
val num_elements : t -> int

(** [linear_index b idx] — bounds-checked row-major offset. *)
val linear_index : t -> int array -> int

val get : t -> int array -> float
val set : t -> int array -> float -> unit

(** [init shape f] fills from a function of the index vector. *)
val init : int list -> (int array -> float) -> t

(** [randomize ~seed b] fills with reproducible pseudo-random values in
    [0, 1). *)
val randomize : seed:int -> t -> unit

(** [copy b] — a fresh data array; the shape and strides arrays, never
    mutated, are shared. *)
val copy : t -> t

val fill : t -> float -> unit

(** [approx_equal ?eps a b] — same shape, and every pair of elements
    agrees: equal (equal infinities and [0.]/[-0.] included, tested
    first), both NaN, or both finite with [|x - y| <= eps * max 1 |x| |y|]
    ([eps] defaults to [1e-4]). test/test_interp.ml pins the table. *)
val approx_equal : ?eps:float -> t -> t -> bool

(** Largest absolute element-wise difference (shapes must match). *)
val max_abs_diff : t -> t -> float

val pp : Format.formatter -> t -> unit
