(** Operation matchers ([m_Op]): verify the types of arithmetic operations
    along use-def chains, with value capture ([m_Capt]) for later
    inspection (§III-C).

    A matcher is applied to a {e value} and inspects its defining
    operation. The defining relation is pluggable: the default is SSA
    [Core.defining_op], while the matrix-chain detection at the Linalg
    level (Listing 9) plugs in a last-writer relation over buffers. *)

open Ir

type t

(** [op name operands] — value defined by [name] whose operands match. *)
val op : string -> t list -> t

(** Like {!op}, but also tries every permutation of the operands. *)
val op_commutative : string -> t list -> t

(** [capture cell inner]: on a successful overall match, the matched value
    is stored in [cell]. (Captures are written during the search; read
    them only after [matches] returned [true].) *)
val capture : Core.value option ref -> t -> t

(** [m_Capt] shorthand: capture anything. *)
val capt : Core.value option ref -> t

val any : t

(** [value v] matches exactly the given value. *)
val value : Core.value -> t

(** [pred f] matches any value satisfying the predicate. *)
val pred : (Core.value -> bool) -> t

(** [matches ?def t v] — [def] overrides the defining-op relation. *)
val matches : ?def:(Core.value -> Core.op option) -> t -> Core.value -> bool
