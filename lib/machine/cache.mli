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
    the stayer hits {!run_strided} and {!replay_movers} counted without
    a probe and the accesses they replayed. A deterministic proxy for
    the simulator's work. *)
val probes : t -> int

(** [replayed t] counts the accesses counted at [t] from a recorded
    outcome: a {!replay}'s, and the movers' of a {!replay_movers}. *)
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

type hierarchy

(** Raises [Invalid_argument] when L2's or L3's line is smaller than
    L1's. Otherwise two accesses in one L1 line are in one line at every
    level, which {!replay} relies on. *)
val create_hierarchy :
  l1:t -> l2:t -> l3:t -> hierarchy

val l1 : hierarchy -> t

(** [separable h]: L2 and L3 have L1's line size and a set count that
    L1's divides. A line's L1 set then fixes its set at every level (its
    outer set, modulo L1's set count), so accesses whose lines use
    disjoint L1 sets use disjoint sets at every level. {!replay_movers}
    relies on it. *)
val separable : hierarchy -> bool

(** [reset_hierarchy h] resets all three levels. *)
val reset_hierarchy : hierarchy -> unit

(** [access_hierarchy h addr] probes L1, then L2, then L3 on misses;
    returns the innermost level that hit (1-4, 4 = memory). *)
val access_hierarchy : hierarchy -> int -> int

(** A walk's sites split for {!run_strided}: a site that moves less
    than one L1 line per iteration is a {e stayer}, up to L1's ways of
    them in body order; every other site is a {e mover}. A plan also
    holds the mover list, the stayer count, whether any stayer moves,
    and one scratch mark per L1 set, so one walk at a time uses it. *)
type plan

(** [plan h ~deltas] splits a walk whose site [s] moves [deltas.(s)]
    bytes per iteration, for {!run_strided} on [h] or on any hierarchy
    with [h]'s L1 geometry. *)
val plan : hierarchy -> deltas:int array -> plan

(** [is_mover p s]: site [s] is a mover of [p]. *)
val is_mover : plan -> int -> bool

(** [one_set_movers p]: {!replay_movers} may run [p]'s walks. The
    hierarchy [p] was planned on is {!separable}, [p] has a mover and a
    stayer, and every mover moves a multiple of L1's set span ([line]
    times the set count) per iteration, so each walk keeps each mover's
    lines in one L1 set. *)
val one_set_movers : plan -> bool

(** [run_strided h p ~n ~addrs ~costs mem_cycles] has the same outcomes,
    counts and cost sum as {!access_hierarchy} run in probe order over
    [n] iterations of the sites of [p]: site [s] of iteration [i] (from
    0) accesses [addrs.(s) + i * deltas.(s)], for the [deltas] [p] was
    planned from. An access served by level [l > 1] adds
    [costs.(3 * s + l - 2)] to the running [mem_cycles], in probe order;
    the final sum is returned. Every level's {!accesses} and {!misses}
    end as the probes would leave them, and every later access has the
    outcome it would have had. [addrs] is advanced past the last
    iteration.

    Not every access is probed: the walk runs in windows. A window's
    first iteration probes every site in body order; its later
    iterations probe the movers only, in body order, and count every
    stayer as a hit ({!probes} excludes them). A window ends before the
    first iteration in which a stayer would leave its line, and before
    the first in which a mover's line lands in a set that a stayer's
    line uses. It is one iteration long when, in its first iteration, a
    mover lands in a set after a stayer of that set. With no mover this
    is a jump over every iteration in which all sites stay in their
    lines.

    This is exact. LRU sets are independent. After a window's first
    iteration, a set that stayers use sees only the stayers' accesses,
    the same lines in the same order in every iteration, at most [ways]
    distinct lines; the first iteration ended with those accesses
    (movers touched the set only before its first stayer did). Exact
    LRU maps a repeated sequence back to the state it left, so they all
    hit, send nothing to L2 or L3, cost nothing and change no state.
    Every other set sees only movers, all probed in program order, so
    L2 and L3 see the same miss stream and the costs are summed in the
    same order.

    With [record], every L1 miss is appended to it in probe order: its
    access position ([iteration * sites + site]) and the level that
    served it. *)
val run_strided :
  ?record:outcome ->
  hierarchy ->
  plan ->
  n:int ->
  addrs:int array ->
  costs:float array ->
  float ->
  float

(** [append dst ~at src] appends [src]'s misses to [dst], each position
    moved by [at]: a log can thus hold the misses of several walks, each
    at its offset in a longer sub-walk. *)
val append : outcome -> at:int -> outcome -> unit

(** [replay h ~accesses o ~costs mem_cycles] counts a walk of [accesses]
    accesses whose L1 misses are [o], without probing: it adds each
    miss's cost, [costs.(3 * site + level - 2)], to the running
    [mem_cycles] in [o]'s order and returns the sum, and advances every
    level's {!accesses} and {!misses} as the walk would (L2 sees the L1
    misses, L3 the L2 misses). It changes no cache state, and {!probes}
    stays as it was. A walk here is any access sequence whose misses
    were logged in order: one {!run_strided} walk, or a sub-walk of a
    loop nest made of many, replayed ones included, each logged at its
    offset. {!chain} says when a replay is exact. *)
val replay :
  hierarchy -> accesses:int -> outcome -> costs:float array -> float -> float

(** {2 Replay chains} *)

(** The replay rule over a run of walks. A walk W2 {e repeats} the
    walk W1 before it when it touches W1's line sequence under the same
    costs and nothing probed L1 since W1 ended. A repeat is replayed
    from W1's outcome when W1 missed L1 nowhere, or W1 itself repeated
    its predecessor W0 with the same outcome (the same L1 misses at the
    same positions, served by the same levels).

    This is exact. A walk that hit L1 throughout changes nothing below
    L1, and W2 revisits its lines in its order, so W2 hits too and
    leaves every set in the recency order it found. Otherwise, exact
    LRU maps a repeated access sequence back to the state it left (per
    set, running a sequence twice ends where running it once does): W1
    started L1 in the state W0 left and W2 in the state W1 left, the
    same state, since W1 ran W0's line sequence from there. So W2
    misses L1 where W1 did; W0 and W1 sent L2 one miss sequence, so L2
    too starts W2 as it started W1, and likewise L3. W2 has W1's
    outcome and leaves every level as it found it, so a repeat of W2
    replays too.

    A chain holds the last walk's outcome and whether a repeat of it
    replays; a replayed walk leaves it as it was. Only {!repeated} and
    {!broken} change it. *)
type chain = private {
  mutable fixed : bool;  (** a repeat of the last walk replays, from [last] *)
  mutable known : bool;  (** [last] is the last walk's outcome *)
  mutable last : outcome;
  mutable spare : outcome;  (** see {!spare} *)
}

val chain : unit -> chain

(** [spare c] is an empty log for the outcome of a walk that repeats
    [c]'s last; {!repeated} takes it. *)
val spare : chain -> outcome

(** [repeated c]: the walk whose outcome [spare c] holds repeated [c]'s
    last walk, and is now the last. *)
val repeated : chain -> unit

(** [broken c ~clean]: a walk that did not repeat [c]'s last ran, and is
    now the last; [clean]: it missed L1 nowhere. *)
val broken : chain -> clean:bool -> unit

(** {2 Movers-only replay}

    A walk whose movers repeat the previous walk's lines while its
    stayers do not can replay the movers alone, when its movers keep one
    L1 set each ({!one_set_movers}) and its stayers keep out of them. *)

(** [stayers_avoid_movers h p ~n ~addrs]: no stayer line of the walk of
    [n] iterations from [addrs] lies in the L1 set of a mover's first
    line, the one set a mover of a {!one_set_movers} plan uses. *)
val stayers_avoid_movers :
  hierarchy -> plan -> n:int -> addrs:int array -> bool

(** [movers_outcome p o ~into] sets [into] to the misses of [o] at
    mover sites of [p], in order. *)
val movers_outcome : plan -> outcome -> into:outcome -> unit

(** [replay_movers h p ~n ~addrs ~movers ~costs mem_cycles] runs the
    walk of {!run_strided} with its movers replayed from [movers] (their
    L1 misses, positions relative to the walk) and its stayers probed:
    every miss's cost is added to the running [mem_cycles] in access
    order, the movers' and the stayers' merged by position, and every
    level's counters advance as {!run_strided}'s would; the movers'
    accesses count as replayed. With [record], every miss is appended
    to it in access order, as {!run_strided} logs them.

    The stayers run in windows: a window's first iteration probes every
    stayer in body order, and its later iterations, in which every
    stayer stays in its line, probe none.

    Exact for a walk W of a {!one_set_movers} plan when the {!chain}
    rule, applied to the movers' accesses alone over a run of walks
    whose stayers all avoid the movers' sets
    ({!stayers_avoid_movers}), replays W's movers from [movers]. With
    equal lines and L1's set count dividing each outer level's, a
    line's outer set fixes its L1 set, so the movers' sets at every
    level see only the movers over that run, and the chain argument
    holds for those sets alone: W's movers have the recorded misses and
    leave those sets as they found them. The stayers' sets see only
    stayers, probed in program order; a window's later iterations
    repeat the stayers' own lines, at most [ways] of them per set, as
    the first iteration left them, so they all hit. *)
val replay_movers :
  ?record:outcome ->
  hierarchy ->
  plan ->
  n:int ->
  addrs:int array ->
  movers:outcome ->
  costs:float array ->
  float ->
  float
