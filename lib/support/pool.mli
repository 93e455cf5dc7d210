(** The one domain pool: every multi-domain driver ([Batch.Driver.run],
    [Tune.search]) fans its work out through {!run}.

    Work is claimed dynamically — each worker takes the next unclaimed
    index from one shared atomic counter — so a heavy task never pins
    the tasks behind it to a busy worker. Which worker runs which index
    therefore depends on scheduling: callers write results into slots
    indexed by the task index, never by the worker, and fold them in
    index order afterwards (docs/CONCURRENCY.md). *)

(** [run ~domains n f] calls [f ~worker i] exactly once for every
    [i] in [0, n). [domains] is clamped to [1, n]; worker 0 is the
    calling domain and workers [1 .. d-1] are domains spawned for this
    call, so [worker] is always in [0, d). If a task raises, the other
    workers keep draining the index range, every spawned domain is
    joined, and then the first exception (in worker order) is re-raised
    with its backtrace. *)
val run : domains:int -> int -> (worker:int -> int -> unit) -> unit
