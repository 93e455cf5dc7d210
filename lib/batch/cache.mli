(** Persistent content-addressed compilation cache with crash-safe
    commits (layout, journal format, and recovery invariants in
    docs/CACHE.md).

    Keys are {!Support.Digest} hex strings — hash of input source +
    pipeline config + pattern-set identity (the driver builds them with
    {!key}); values are JSON artifact payloads. Every commit is
    write-tmp / fsync / atomic-rename plus one fsynced append-only
    journal line; an entry exists iff its journal line landed, so a kill
    at any instant loses at most the in-flight entry and never corrupts
    the store. {!open_} replays the journal, sweeps temp files and
    unjournaled blobs, and compacts the journal.

    One process owns a cache directory at a time. Within the process a
    handle is domain-safe, so the batch driver's worker domains share
    one: an internal mutex guards the committed set, the counters and
    every {!store}, while {!find} reads and decodes the (immutable) blob
    outside it. *)

type t

(** [open_ ~dir] creates [dir] (and [dir/objects]) as needed, runs the
    recovery scan, and returns a ready store. Raises {!Support.Diag.Error}
    if a path component exists and is not a directory. *)
val open_ : dir:string -> t

val dir : t -> string

(** [key parts] — the content address of an artifact, from the parts
    that determine it (injective encoding: {!Support.Digest.strings}). *)
val key : string list -> string

(** [find t k ~decode] — [decode] applied to the committed payload for
    [k], or [None]. A committed blob that fails to read, parse or decode
    ([decode] raises) is discarded: a miss and a recompile, not an
    error. Counts into {!hit_miss}, so its counts agree with what the
    caller served. *)
val find : t -> string -> decode:(Support.Json.t -> 'a) -> 'a option

(** [store t ~key json] commits [json] under [key]; no-op if already
    committed. Raises on I/O failure — callers treat a failed store as a
    warning, the entry itself stays valid. *)
val store : t -> key:string -> Support.Json.t -> unit

val mem : t -> string -> bool

val entry_count : t -> int

(** [(hits, misses)] counted by {!find} over this handle's lifetime. *)
val hit_miss : t -> int * int

(** What {!open_}'s recovery scan dropped — all zero/false after a clean
    shutdown. *)
type recovery = {
  rec_swept_tmp : int;  (** orphaned temp files removed *)
  rec_unjournaled : int;  (** renamed blobs with no journal line *)
  rec_missing_blob : int;  (** journal lines with no blob *)
  rec_torn_journal : bool;  (** final journal line was torn *)
}

val recovery : t -> recovery

(** {2 Fault injection (tests only)} *)

(** Raised by test hooks to simulate a crash at a labelled point. *)
exception Injected_crash of string

(** Called with a crash-point label at each step of the commit protocol
    ([store:before-tmp], [store:mid-blob], [store:before-rename],
    [store:before-journal], [store:after-journal]); tests install a hook
    that raises. Reset to [ignore] when done. *)
val crash_hook : (string -> unit) ref
