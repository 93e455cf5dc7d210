(** A domain-safe build-once cell: the value is computed on first
    {!get}, by exactly one domain, and every later {!get} on any domain
    returns that same (physically equal) value.

    This is the one build-once primitive of the library
    (docs/CONCURRENCY.md). Stdlib [lazy] is not a substitute: two
    domains forcing the same unforced [lazy] at once make one of them
    raise [CamlinternalLazy.Undefined]. Here a racing first [get] blocks
    on the cell's mutex until the winner has published the value.

    The fast path is one [Atomic.get]. If the initializer raises, nothing
    is published, the exception propagates, and the next [get] runs the
    initializer again. Forcing a cell from inside its own initializer
    raises [Sys_error] (the mutex is already held). *)

type 'a t

(** [make init] — a cell whose value is [init ()], computed on first
    use. *)
val make : (unit -> 'a) -> 'a t

(** The cell's value, computing it on the first call process-wide. *)
val get : 'a t -> 'a
