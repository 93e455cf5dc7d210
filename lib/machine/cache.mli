(** Set-associative LRU cache simulator (single level) and a three-level
    hierarchy. The testbed substitute for the paper's Intel/AMD machines:
    the trace generator drives memory accesses through a hierarchy and
    the timing model charges miss latencies. *)

type t

(** [create ~size ~line ~ways] — sizes in bytes; [size] must be a
    multiple of [line * ways], and both [line] and the set count
    [size / (line * ways)] must be powers of two (lines and sets are
    found by shift and mask). Raises [Invalid_argument] otherwise. *)
val create : size:int -> line:int -> ways:int -> t

(** [access t addr] returns [true] on hit and updates LRU state. The
    replacement is exact LRU: a miss evicts the least recently used way
    of the set (the first such way before any has been used). A hit on
    the set's most recently used line leaves the state as it was. *)
val access : t -> int -> bool

val accesses : t -> int
val misses : t -> int
val reset : t -> unit

(** {2 Hierarchy} *)

type hierarchy

val create_hierarchy :
  l1:t -> l2:t -> l3:t -> hierarchy

(** [access_hierarchy h addr] probes L1, then L2, then L3 on misses;
    returns the innermost level that hit (1-4, 4 = memory). *)
val access_hierarchy : hierarchy -> int -> int

(** [run_strided h ~n ~addrs ~deltas ~costs mem_cycles] probes [h] with
    [n] iterations of [Array.length addrs] access sites, in order: site
    [s] of iteration [i] (from 0) probes [addrs.(s) + i * deltas.(s)], as
    {!access_hierarchy} would. A probe served by level [l > 1] adds
    [costs.(3 * s + l - 2)] to the running [mem_cycles], in probe order;
    the final sum is returned. [addrs] is advanced past the last
    iteration. *)
val run_strided :
  hierarchy ->
  n:int ->
  addrs:int array ->
  deltas:int array ->
  costs:float array ->
  float ->
  float
