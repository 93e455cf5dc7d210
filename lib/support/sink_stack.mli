(** A domain-local stack of sinks, newest first — the substrate of
    {!Ir.Trace} and {!Ir.Remark}.

    Each domain sees only the sinks it installed itself, so a compilation
    on one domain never observes, nor disturbs, the sinks of a concurrent
    compilation on another (docs/CONCURRENCY.md). Installing and
    uninstalling never race. *)

type 'a t

(** Handles are positive and unique process-wide, so [uninstall] is
    order-independent. *)
type handle = int

(** A fresh stack, empty on every domain. *)
val create : unit -> 'a t

(** [install t sink] pushes [sink] onto the calling domain's stack. *)
val install : 'a t -> ('a -> unit) -> handle

val uninstall : 'a t -> handle -> unit

(** [with_sink t sink f] runs [f ()] with [sink] installed,
    exception-safely uninstalling it afterwards. *)
val with_sink : 'a t -> ('a -> unit) -> (unit -> 'b) -> 'b

(** True when a sink is installed on the calling domain: one DLS read. *)
val enabled : 'a t -> bool

(** Number of sinks installed on the calling domain (for tests). *)
val installed_count : 'a t -> int

(** [dispatch t x] delivers [x] to every sink installed on the calling
    domain, newest first, and reports whether there was any. *)
val dispatch : 'a t -> 'a -> bool
