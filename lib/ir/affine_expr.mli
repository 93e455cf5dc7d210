(** Affine expressions over dimension and symbol variables.

    As in MLIR, affine expressions are a built-in concept of the IR (they
    appear inside attributes via {!Affine_map}), not part of the affine
    dialect. An expression is built from dimensions [d0, d1, ...], symbols
    [s0, s1, ...], integer constants, and the operators [+], [-], [*],
    [floordiv], [mod]; multiplication and division are restricted to a
    constant right-hand side, keeping expressions affine. *)

type t =
  | Dim of int
  | Sym of int
  | Const of int
  | Add of t * t
  | Mul of t * t  (** rhs must be affine-constant after simplification *)
  | Floor_div of t * t
  | Mod of t * t

val dim : int -> t
val sym : int -> t
val const : int -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val floor_div : t -> t -> t
val mod_ : t -> t -> t

(** {2 Integer floor semantics}

    The concrete arithmetic shared by every evaluator of affine expressions
    (constant folding, {!eval}, [Affine.Stage], the interpreter's
    [arith] division):
    [floordiv] rounds toward negative infinity and [floormod] returns the
    matching remainder, so [x = y * floordiv x y + floormod x y] holds for
    every non-zero divisor and [floormod x y] carries the divisor's sign
    (it lies in [[0, y)] for positive [y], [(y, 0]] for negative [y]).
    Both raise [Invalid_argument] when [y = 0]. *)

val floordiv : int -> int -> int
val floormod : int -> int -> int

(** {2 Linear (canonical) form} *)

(** The canonical form of a purely linear affine expression:
    [sum_i coeff(d_i) * d_i + sum_j coeff(s_j) * s_j + const].
    Expressions containing [floordiv] or [mod] have no linear form. *)
type linear = {
  dim_coeffs : (int * int) list;  (** (dim index, coefficient), coeff <> 0 *)
  sym_coeffs : (int * int) list;  (** (sym index, coefficient), coeff <> 0 *)
  constant : int;
}

(** [linearize e] computes the linear form, or [None] if [e] is not purely
    linear (contains floordiv/mod) or multiplies two non-constant terms. *)
val linearize : t -> linear option

(** [of_linear l] rebuilds a simplified expression from a linear form. *)
val of_linear : linear -> t

(** [simplify e] canonicalizes: folds constants, flattens sums, and orders
    terms by variable index when [e] is purely linear; otherwise simplifies
    sub-expressions recursively and canonicalizes a sum or product that
    became linear (a floordiv or mod by 1 folded away), so
    [simplify (simplify e) = simplify e]. *)
val simplify : t -> t

(** {2 Queries} *)

(** [eval ~dims ~syms e] evaluates with the given variable bindings.
    Raises [Invalid_argument] on out-of-range indices. *)
val eval : dims:int array -> syms:int array -> t -> int

(** [is_constant e] returns the constant value if [e] simplifies to one. *)
val is_constant : t -> int option

(** [is_single_dim e] returns [(k, d, c)] when [e] is [k*d_d + c] with
    [k <> 0] — the shape the paper's access placeholders match. *)
val is_single_dim : t -> (int * int * int) option

(** [used_dims e] is the sorted list of dimension indices occurring in [e]. *)
val used_dims : t -> int list

(** [max_dim e] is [1 + ] the largest dimension index in [e], or [0]. *)
val max_dim : t -> int

(** [substitute_dims f e] replaces every [Dim i] with [f i]. *)
val substitute_dims : (int -> t) -> t -> t

(** [row_major_offset strides exprs] is the element offset
    [sum_i strides.(i) * e_i] of a subscript list, as one simplified
    expression (linear whenever every subscript is), so stagers can fold
    the strides into a single linear form. *)
val row_major_offset : int array -> t list -> t

(** Semantic equality up to {!simplify}, computed by a monomorphic
    structural walk with a physical ([==]) fast path. *)
val equal : t -> t -> bool

(** Syntactic equality: the same walk as {!equal} without simplifying
    either side first, for expressions already simplified (such as the
    results of an {!Affine_map}). *)
val structural_equal : t -> t -> bool

(** Total order consistent with {!equal}; monomorphic. *)
val compare : t -> t -> int

(** [add_to_buffer b x] appends the textual form of [x] to [b]: the one
    printer of this type, which {!Printer} calls directly; [pp] and
    [to_string] are derived from it. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
