(** AST of the Tactics Description Language (TDL, §III-A and Figure 4):
    Einstein-notation patterns and builder recipes, in a syntax borrowed
    from Tensor Comprehensions. *)

(** Subscript expressions: linear combinations of index variables, e.g.
    [x + r] for convolution windows or [2*i + 1]. *)
type iexpr = {
  ix_terms : (string * int) list;  (** (index variable, coefficient) *)
  ix_const : int;
}

val var : string -> iexpr

(** A tensor reference [C(a, b, c)]. *)
type ref_ = { tensor : string; indices : iexpr list }

type assign = Assign  (** [=] *) | Accumulate  (** [+=] *)

type rhs =
  | R_ref of ref_
  | R_mul of ref_ * ref_

(** A TDL statement, optionally with a grouping clause
    [where f = a * c] introducing a fused index. *)
type stmt = {
  lhs : ref_;
  op : assign;
  rhs : rhs;
  where : (string * string list) option;
}

type tactic = {
  t_name : string;
  t_pattern : stmt;
  t_builder : stmt list;  (** empty = auto-synthesize (Listing 8 style) *)
  t_loc : Support.Loc.t;  (** position of the tactic's [def] *)
}

(** Index variables of a reference, in order, for bare-variable
    subscripts only ([None] if some subscript is compound). *)
val simple_indices : ref_ -> string list option

(** All index variables appearing in a statement. *)
val stmt_vars : stmt -> string list

val pp_stmt : Format.formatter -> stmt -> unit
val stmt_to_string : stmt -> string
