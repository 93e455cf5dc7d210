(** Multi-dimensional affine maps [(d0, ..., dn)[s0, ..., sm] -> (e0, ..., ek)].

    Affine maps are the compile-time objects that the affine dialect stores
    in attributes: access functions of [affine.load]/[affine.store], loop
    bounds of [affine.for], and the indexing maps of [linalg.contract]. *)

type t = private {
  n_dims : int;
  n_syms : int;
  exprs : Affine_expr.t list;  (** results, simplified *)
}

(** [make ~n_dims ~n_syms exprs] builds a map; raises [Invalid_argument] if
    an expression references a dimension or symbol out of range. *)
val make : n_dims:int -> ?n_syms:int -> Affine_expr.t list -> t

(** [identity n] is [(d0, ..., dn-1) -> (d0, ..., dn-1)]. *)
val identity : int -> t

(** [constant_map cs] is [() -> (c0, ..., ck)]. *)
val constant_map : int list -> t

(** [permutation p] is the map sending [(d0...dn-1)] to [(d_p(0)...d_p(n-1))];
    [p] must be a permutation of [0..n-1]. Applying it to an index vector [v]
    yields [v'] with [v'.(i) = v.(p.(i))]. *)
val permutation : int array -> t

val n_results : t -> int

(** [eval t ~dims ~syms] applies the map to concrete indices. *)
val eval : t -> dims:int array -> ?syms:int array -> unit -> int array

(** [inverse_permutation p] with [q = inverse_permutation p] satisfies
    [q.(p.(i)) = i]. *)
val inverse_permutation : int array -> int array

(** [minor_identity ~n_dims ~results] selects dimensions [results] in order,
    e.g. [minor_identity ~n_dims:3 ~results:[0;2]] is [(d0,d1,d2) -> (d0,d2)]. *)
val minor_identity : n_dims:int -> results:int list -> t

(** Structural equality with a physical ([==]) fast path; monomorphic and
    length-guarded throughout. Every map is built by {!make}, which
    simplifies its results, so maps equal up to simplification compare
    equal. *)
val equal : t -> t -> bool

(** [add_to_buffer b x] appends the textual form of [x] to [b]: the one
    printer of this type, which {!Printer} calls directly; [pp] and
    [to_string] are derived from it. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
