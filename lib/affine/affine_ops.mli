(** The affine dialect: loops with affine bounds and affine memory accesses,
    plus the high-level [affine.matmul] operation of §5.1.

    [affine.for] semantics: the induction variable ranges over
    [max(lb exprs) <= iv < min(ub exprs)] with a positive constant step, as
    in MLIR (multi-result bound maps are what loop tiling produces for
    non-divisible tile sizes).

    Operand layout of [affine.for]: the [lower_bound] map's operands
    followed by the [upper_bound] map's operands. *)

open Ir

(** {2 affine.for} *)

type bound = Affine_map.t * Core.value list

(** [for_ b ~lb ~ub ~step body] builds a loop; [body] gets a builder at the
    end of the (fresh) body block and the induction variable. A terminating
    [affine.yield] is appended automatically. *)
val for_ :
  Builder.t ->
  ?hint:string ->
  lb:bound ->
  ub:bound ->
  ?step:int ->
  (Builder.t -> Core.value -> unit) ->
  Core.op

(** [for_const b ~lb ~ub body]: constant-bound convenience. *)
val for_const :
  Builder.t ->
  ?hint:string ->
  lb:int ->
  ub:int ->
  ?step:int ->
  (Builder.t -> Core.value -> unit) ->
  Core.op

val is_for : Core.op -> bool
val for_iv : Core.op -> Core.value
val for_body : Core.op -> Core.block
val for_lb : Core.op -> bound
val for_ub : Core.op -> bound
val for_step : Core.op -> int

(** [for_const_bounds op] is [Some (lb, ub)] when both bounds are single
    constant expressions. *)
val for_const_bounds : Core.op -> (int * int) option

(** [for_normalized op]: constant bounds starting at 0 and a unit step —
    the loops the raising tactics match. *)
val for_normalized : Core.op -> bool

(** [for_trip_count op] for constant bounds and step: number of iterations. *)
val for_trip_count : Core.op -> int option

(** {2 Memory access} *)

(** [load b memref (map, indices)]: [map] is applied to the index operands
    to produce the subscripts. *)
val load :
  Builder.t -> Core.value -> Affine_map.t * Core.value list -> Core.value

(** [load_simple b memref ivs]: identity access [A[ivs...]]. *)
val load_simple : Builder.t -> Core.value -> Core.value list -> Core.value

val store :
  Builder.t ->
  Core.value ->
  Core.value ->
  Affine_map.t * Core.value list ->
  Core.op

val store_simple :
  Builder.t -> Core.value -> Core.value -> Core.value list -> Core.op

val is_load : Core.op -> bool
val is_store : Core.op -> bool

(** Accessors shared by load/store: the accessed memref, the access map,
    and the index operands the map applies to. *)
val access_memref : Core.op -> Core.value

val access_map : Core.op -> Affine_map.t
val access_indices : Core.op -> Core.value list

(** For a store, the value being stored. *)
val stored_value : Core.op -> Core.value

(** {2 affine.apply} *)

val apply :
  Builder.t -> Affine_map.t -> Core.value list -> Core.value

(** {2 affine.matmul (§5.1 high-level op)} *)

(** [matmul b a bm c]: C += A * B at the affine level; lowered either via
    the BLIS-schedule path or to naive loops. *)
val matmul : Builder.t -> Core.value -> Core.value -> Core.value -> Core.op

val is_matmul : Core.op -> bool
