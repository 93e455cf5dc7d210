(** The one stager of affine IR: the interpreter ([Interp.Compile]) and
    the trace simulator ([Machine.Trace]) both turn affine expressions,
    loop bounds and access offsets into closures here, and keep only
    their leaves (buffer reads and writes, cache probes).

    A staged closure reads integer values from an [int array] frame:
    each value gets a slot in it at first definition, and {!n_slots}
    sizes the frame. Expressions stage once: a linear form becomes
    [b + sum k_i * frame.(s_i)] with dedicated closures for a constant
    and for 1, 2 or 3 terms; floordiv and mod by a constant stage their
    operands the same way. Staging is exact: a closure computes what
    {!Ir.Affine_expr.eval} computes.

    What a closure cannot run is rejected at stage time with one
    {!Support.Diag.Error} located at the op ({!Ir.Core.nearest_loc}) and
    prefixed ["WHO: "]: affine symbols, a dimension with no operand,
    floordiv/mod by a non-constant or by zero, an empty bound or
    [affine.apply] map, a loop step below 1, a dynamic memref shape, a
    subscript count that is not the memref's rank, and a use of a value
    with no slot. *)

open Ir

(** A slot table: the values staged so far and their frame slots. *)
type t

(** [create ~who] is an empty table whose errors start with [who]. *)
val create : who:string -> t

(** [n_slots t] — slots handed out so far: the frame size. *)
val n_slots : t -> int

(** [def t v] — [v]'s slot, allocated when [v] is first defined. *)
val def : t -> Core.value -> int

(** [find t v] — [v]'s slot, if it has one. *)
val find : t -> Core.value -> int option

(** [use t op v] — [v]'s slot, read by [op]; rejects a value with none
    (["expected an integer value"]). *)
val use : t -> Core.op -> Core.value -> int

(** [expr ~who ~loc ~what slots e] stages [e] with dimension [d] read
    from [frame.(slots.(d))]. [what] names the map in errors. *)
val expr :
  who:string ->
  loc:Support.Loc.t ->
  what:string ->
  int array ->
  Affine_expr.t ->
  int array ->
  int

(** [apply t op] stages the first result of an [affine.apply]. *)
val apply : t -> Core.op -> int array -> int

(** A loop level: its step, its bounds ([lb] the [max], [ub] the [min]
    of their map's results) and its induction variable's slot. *)
type level = {
  step : int;
  lb : int array -> int;
  ub : int array -> int;
  iv_slot : int;
}

(** [level t op] stages an [affine.for]'s bounds, then gives its
    induction variable a slot: a nested level's bounds may read it.
    Rejects a step below 1 (["affine.for with non-positive step"]). *)
val level : t -> Core.op -> level

(** [offset t op] stages the row-major element offset of an access
    ([affine.load]/[affine.store], or [memref.load]/[memref.store] with
    identity subscripts; see {!Bounds.access}). *)
val offset : t -> Core.op -> int array -> int

(** [subscripts t op] stages each subscript of an access on its own. *)
val subscripts : t -> Core.op -> (int array -> int) array

(** An access offset as [base frame + sum_l coeffs.(l) * ivs.(l)]. *)
type strided = {
  base : int array -> int;  (** reads no iv of the nest *)
  coeffs : int array;  (** per iv; every map dim bound to it summed *)
}

(** [strided t ~bounds ivs op] splits the offset of the access [op] over
    the enclosing induction variables [ivs] (outermost first), or [None]
    when the offset is not linear. The ivs need no slot.

    A reshape's subscripts are the mixed-radix digits of one linear [l]
    (subscript [i] is [(l floordiv q_i) mod n_i], [q_i] the memref's
    stride and [n_i] its extent; the last is [l mod n], the first may
    lack its [mod]): when [bounds] proves [0 <= l < prod n], the offset is
    [l] itself and is split as such. The fold is exact on every value
    [bounds] allows, and is made only here: the IR keeps its subscripts. *)
val strided :
  t -> bounds:Bounds.t -> Core.value array -> Core.op -> strided option
