(** Monotonic unique-id generation, used for SSA values, ops and blocks.

    Generators are atomic: concurrent [next] calls from multiple domains
    never return the same id. The IR layer relies on this — op/value ids
    key tables such as [Ir.Core.clone_op]'s value map, so a cross-domain
    collision would silently corrupt unrelated IR. *)

type t

val create : unit -> t

(** [next t] returns a fresh id, starting at 0. Atomic: safe to call
    concurrently from multiple domains. *)
val next : t -> int

(** A process-wide generator for entities that only need global uniqueness. *)
val global : t
