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
    replacement is exact LRU: each set keeps its lines in recency order,
    and a miss evicts the least recently used line, or an empty way while
    the set is not full. A hit on the set's most recently used line
    writes nothing and leaves the state as it was. *)
val access : t -> int -> bool

(** [accesses t] counts every access, probed or skipped. *)
val accesses : t -> int

val misses : t -> int

(** [probes t] counts the accesses actually probed: {!accesses} minus
    the hits {!run_strided} counted without a probe and the accesses
    {!replay} counted. A deterministic proxy for the simulator's work. *)
val probes : t -> int

(** [replayed t] counts the accesses {!replay} counted at [t]. *)
val replayed : t -> int

(** [line t] is the line size in bytes. *)
val line : t -> int

(** [reset t] returns [t] to [create]'s state: empty ways and counters
    at 0. It writes no array when [t] did not miss since it was created
    or last reset: only a miss brings a line in, a hit only reorders. *)
val reset : t -> unit

(** {2 Hierarchy} *)

(** The L1 misses of one {!run_strided} walk, in probe order. *)
type outcome

(** [outcome ()] is an empty log. *)
val outcome : unit -> outcome

(** [clear o] empties [o]. *)
val clear : outcome -> unit

(** [outcome_misses o] counts the L1 misses logged in [o]. *)
val outcome_misses : outcome -> int

(** [same_outcome a b]: the same misses at the same positions, served
    by the same levels. *)
val same_outcome : outcome -> outcome -> bool

type hierarchy

(** Raises [Invalid_argument] when L2's or L3's line is smaller than
    L1's. Otherwise two accesses in one L1 line are in one line at every
    level, which {!replay} relies on. *)
val create_hierarchy :
  l1:t -> l2:t -> l3:t -> hierarchy

val l1 : hierarchy -> t

(** [reset_hierarchy h] resets all three levels. *)
val reset_hierarchy : hierarchy -> unit

(** [access_hierarchy h addr] probes L1, then L2, then L3 on misses;
    returns the innermost level that hit (1-4, 4 = memory). *)
val access_hierarchy : hierarchy -> int -> int

(** [run_strided h ~n ~addrs ~deltas ~costs mem_cycles] has the same
    outcomes, counts and cost sum as {!access_hierarchy} run in probe
    order over [n] iterations of [Array.length addrs] access sites: site
    [s] of iteration [i] (from 0) accesses [addrs.(s) + i * deltas.(s)].
    An access served by level [l > 1] adds [costs.(3 * s + l - 2)] to the
    running [mem_cycles], in probe order; the final sum is returned. Every
    level's {!accesses} and {!misses} end as the probes would leave them,
    and every later access has the outcome it would have had. [addrs] is
    advanced past the last iteration.

    Not every access is probed. When no site moves a whole line per
    iteration and there are at most as many sites as L1 ways, each chunk
    of iterations in which every site stays in one line probes only its
    first iteration; the others count as hits ({!probes} excludes them).
    Otherwise every chunk is one iteration and every access is probed.
    This is exact. After the first iteration, the lines it touched are
    the most recently used of their sets, at most [ways] per set, so all
    are resident. A later iteration touching the same lines in the same
    order hits every time, evicts nothing, sends nothing to L2 or L3 and
    costs nothing. Its last touches come in the same order as the first
    iteration's, so it leaves every set in the recency order it found it
    in: the touched lines first, by last touch, the other lines behind
    them as before. The cache state is that order alone, so no later
    outcome can change.

    With [record], every L1 miss is appended to it in probe order: its
    access position ([iteration * sites + site]) and the level that
    served it. *)
val run_strided :
  ?record:outcome ->
  hierarchy ->
  n:int ->
  addrs:int array ->
  deltas:int array ->
  costs:float array ->
  float ->
  float

(** [replay h ~accesses o ~costs mem_cycles] counts a walk of [accesses]
    accesses whose L1 misses are [o], without probing: it adds each
    miss's cost, [costs.(3 * site + level - 2)], to the running
    [mem_cycles] in [o]'s order and returns the sum, and advances every
    level's {!accesses} and {!misses} as the walk would (L2 sees the L1
    misses, L3 the L2 misses). It changes no cache state, and {!probes}
    stays as it was.

    Exact for a walk W that touches the line sequence, under the
    [costs], of the walk W' logged in [o] when, as W starts, either
    every level is in the state W' started from, or W' missed L1
    nowhere and nothing probed L1 since: W then repeats W' miss for miss
    and leaves every level as it found it. Exact LRU maps a repeated
    access sequence back to the state it left (per set, running a
    sequence twice ends where running it once does), so the first holds
    when W' itself repeated its predecessor's line sequence with its
    predecessor's outcome and nothing probed L1 in between: W' and W
    then start L1 in one state, miss L1 at the same positions, start L2
    in one state, and likewise for L2's misses and L3. *)
val replay :
  hierarchy -> accesses:int -> outcome -> costs:float array -> float -> float
