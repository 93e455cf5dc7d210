(** AST for the polyhedral mini-C subset accepted by the MET substitute.

    The subset covers the paper's workloads: perfectly or imperfectly
    nested [for] loops with integer-literal bounds, assignments to array
    elements with affine subscripts (including linearized, Darknet-style
    subscripts such as [A[i*K+k]]), and float arithmetic over array reads
    and literals. Compound assignments are desugared by the parser. *)

(** Integer index expressions over loop variables. *)
type index =
  | I_var of string
  | I_const of int
  | I_add of index * index
  | I_sub of index * index
  | I_mul of index * index

(** Float-valued expressions. *)
type expr =
  | E_lit of float
  | E_ref of ref_
  | E_add of expr * expr
  | E_sub of expr * expr
  | E_mul of expr * expr
  | E_div of expr * expr

(** An array element reference [A[e1][e2]...]; scalars are rank-0. *)
and ref_ = { array : string; subscripts : index list }

type stmt =
  | S_for of {
      var : string;
      lb : int;
      ub : int;
      body : stmt list;
      loc : Support.Loc.t;
    }  (** [for (int var = lb; var < ub; ++var) body] *)
  | S_assign of { lhs : ref_; rhs : expr; loc : Support.Loc.t }

type decl = { d_name : string; d_dims : int list }

type kernel = {
  k_name : string;
  k_params : decl list;
  k_locals : decl list;
  k_body : stmt list;
}

type program = kernel list

(** {2 Traversal helpers} *)

(** [(writes, reads)] of a statement subtree, as references. *)
val stmt_accesses : stmt -> ref_ list * ref_ list

(** Loop variables referenced by an index expression. *)
val index_vars : index -> string list

(** [affine_of_index var idx] — [idx] as an affine expression, each
    loop variable [v] as [var v] (unsimplified: the one conversion behind
    MET's access maps and its dependence test). *)
val affine_of_index : (string -> Ir.Affine_expr.t) -> index -> Ir.Affine_expr.t

(** Structural equality helper: reset every statement location to
    {!Support.Loc.unknown} (for AST comparisons in tests). *)
val strip_locs : kernel -> kernel

val pp_stmt : Format.formatter -> stmt -> unit
val pp_kernel : Format.formatter -> kernel -> unit
