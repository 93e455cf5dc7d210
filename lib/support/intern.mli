(** Domain-safe hash-consing (uniquing) tables.

    [Make] builds an interner for one key type: [intern k] returns the
    canonical node structurally equal to [k], creating it on first sight.
    Two structurally equal values interned through the same table are
    physically equal ([==]), so client [equal] functions can use physical
    equality as their fast path and fall back to a structural walk only
    for values that never went through the interner (or that straddle a
    [clear] generation).

    Concurrency (see docs/CONCURRENCY.md and docs/PERF.md): the bucket
    array is published through an [Atomic.t]. Hits — the overwhelmingly
    common case once a module's types exist — are lock-free: one atomic
    read plus a bucket scan over immutable list cells. Misses take a
    process-wide mutex, re-probe, then prepend the new slot to its bucket
    in place; a fresh array is built and published atomically only when
    the table resizes. A reader racing with an insert can at worst miss
    the new slot and fall through to the locked re-probe — it can never
    observe a torn or half-initialized one — so concurrent interns of the
    same key on different domains race benignly and agree on whichever
    canonical node won the lock. This mirrors the dialect registry's
    discipline: mutation is mutex-serialized and readers only ever
    observe fully constructed slots. *)

(** Version tag for the interning representation, for inclusion in cache
    identities (see [Mlt.Pipeline.schedule_cache_identity]): bump when
    canonical forms or the interning discipline change in a way that
    could alias cached artifacts across representations. *)
val version : string

type stats = {
  size : int;  (** canonical nodes currently in the table (exact) *)
  hits : int;
      (** lock-free probes that found an existing node; maintained without
          synchronization, so approximate under parallelism *)
  misses : int;  (** nodes inserted since the last [clear] (exact) *)
  generation : int;  (** incremented by every [clear] *)
}

module type KEY = sig
  type t

  (** Structural equality used to recognize an existing canonical node.
      May be stricter than the client-facing [equal] (e.g. bitwise float
      comparison so [-0.] and [0.] keep distinct canonical nodes). *)
  val equal : t -> t -> bool

  (** Must agree with [equal]; collisions are only a performance matter. *)
  val hash : t -> int
end

module type S = sig
  type key

  (** [intern k] returns the canonical node for [k]. The result is
      [KEY.equal] to [k] and physically equal to every other [intern] of a
      [KEY.equal] value within the same generation. *)
  val intern : key -> key

  (** [mem k] probes without inserting. *)
  val mem : key -> bool

  val stats : unit -> stats

  (** Drop every canonical node and start a new generation. Only intended
      for tests; nodes interned before and after a [clear] are never
      physically equal, which is why client [equal] keeps a structural
      fallback. *)
  val clear : unit -> unit
end

module Make (K : KEY) : S with type key = K.t
