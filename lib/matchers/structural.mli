(** Structural matchers: declaratively describe the control-flow shape of
    the IR (§III-C, Listing 5). A matcher replicates the loop structure it
    expects, with optional filtering callbacks for non-structural
    properties; matching starts at a relative root and recursively walks
    the descendants, failing fast on the first mismatch. *)

open Ir

type t

(** [for_ child] matches an [affine.for] whose body consists of exactly
    the ops matched by [child] (ignoring the terminator). *)
val for_ : ?filter:(Core.op -> bool) -> t -> t

(** [stmts children] matches a body made of exactly these children,
    in order. *)
val stmts : t list -> t

(** [body f] matches any loop-free body for which the callback holds —
    the paper's [isMAC]-style filtering function. *)
val body : (Core.block -> bool) -> t

(** [any] matches anything. *)
val any : t

(** [perfect ~depth ~body_pred] is [for_ (for_ (... (body body_pred)))]:
    a perfectly nested loop of the given depth. *)
val perfect : depth:int -> (Core.block -> bool) -> t

(** [matches t op] — [op] is the relative root. *)
val matches : t -> Core.op -> bool

(** [matched_nest ~depth op] returns the loops of a perfect nest of
    exactly [depth] rooted at [op] (innermost body may contain anything
    but loops), or [None]. *)
val matched_nest : depth:int -> Core.op -> Core.op list option
