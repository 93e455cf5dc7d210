(** Pattern-rewriting infrastructure: first-class rewrite-pattern
    descriptors applied greedily to a fixpoint, in the style of MLIR's
    [RewritePatternSet] / [FrozenRewritePatternSet] pair that Multi-Level
    Tactics hooks its generated tactics into.

    A pattern is no longer an opaque closure: it declares the op names it
    can match at ({!roots}), a benefit, and optionally the op names it
    generates. Freezing a pattern list ({!freeze}) sorts it once by
    descending benefit and precomputes, per declared root name, the
    candidate list — so the drivers dispatch O(candidates at this op
    name) instead of O(all patterns) at every worklist visit. *)

(** Handle passed to a pattern while it rewrites; insertion happens at the
    matched op by default. *)
type ctx = {
  root : Core.op;  (** the function/module the driver runs on *)
  builder : Builder.t;  (** positioned just before the matched op *)
}

(** Where a pattern can match. [Roots names] promises the pattern only
    ever returns [true] on ops whose [o_name] is in [names] — the frozen
    index uses this to skip the pattern everywhere else. [Any] makes the
    pattern a candidate at every op (structural patterns that cannot name
    a root). Declared roots must be conservative: the apply function
    still guards on the op itself, so relaxing [Roots _] to [Any] never
    changes the result, only the number of match attempts. *)
type roots = Any | Roots of string list

(** A structural prefix: a conservative, cheaply checkable necessary
    condition for the pattern to match, declared alongside {!roots} and
    compiled by {!freeze} into a decision tree shared by all patterns
    rooted at the same op name. The drivers evaluate each
    declared feature once per op visit and only run [p_apply] on the
    surviving candidates. Like roots, a prefix must over-approximate: the
    apply function still guards on the op itself, so stripping prefixes
    ({!Frozen.strip_prefixes}, {!Frozen.relax}) never changes rewriting
    results — only match-attempt counts (see docs/PERF.md). *)
type prefix

(** [prefix ?operands ?regions ?nest_depth ?nest_ignore ()] — every
    component is an {e exact} requirement on the matched op:
    - [operands]: operand count;
    - [regions]: region count;
    - [nest_depth]: length of the op's perfect nest — the chain of
      same-named ops where each link is the sole op of its parent's
      single region's single block, not counting ops whose names are in
      [nest_ignore] (the producer's terminator names, e.g.
      ["affine.yield"]). Depth [1] is a loop with a non-loop body; the
      probe mirrors [Affine.Loops.perfect_nest] exactly when
      [nest_ignore = ["affine.yield"]]. Must be [>= 1]; [nest_ignore]
      without [nest_depth] is rejected. *)
val prefix :
  ?operands:int ->
  ?regions:int ->
  ?nest_depth:int ->
  ?nest_ignore:string list ->
  unit ->
  prefix

type pattern = {
  p_name : string;
  p_benefit : int;  (** higher applies first *)
  p_roots : roots;
  p_prefix : prefix option;  (** structural prefix, [None] = no pruning *)
  p_apply : ctx -> Core.op -> bool;
      (** Inspect [op]; if it matches, mutate the IR (insert replacement
          ops via [ctx.builder], erase matched ops) and return [true]. *)
}

(** [pattern ~name ?benefit ?roots ?prefix apply] — [benefit] defaults
    to 1, [roots] to [Any], [prefix] to none. A pure constructor: descriptors carry no
    mutable state, so a frozen set may be shared across domains, and a
    pattern is counted under [name] by the driver runs that use it
    (see {!section-stats}). *)
val pattern :
  name:string ->
  ?benefit:int ->
  ?roots:roots ->
  ?prefix:prefix ->
  (ctx -> Core.op -> bool) ->
  pattern

(** {2 Frozen pattern sets} *)

module Frozen : sig
  (** An immutable, op-indexed view of a pattern list: built once per
      set (ideally at pass construction), reused across driver runs. *)
  type t

  (** [candidates t op_name] — the benefit-sorted patterns that can match
      an op named [op_name]: the indexed list for a declared root, or
      just the [Any]-rooted patterns for any other name. Prefixes are
      not consulted (this is the name-only view). *)
  val candidates : t -> string -> pattern list

  (** [candidates_for t op] — what the drivers attempt at [op]: the
      name-indexed bucket filtered through its compiled prefix tree.
      Always a (benefit-ordered) subsequence of
      [candidates t op.o_name]. *)
  val candidates_for : t -> Core.op -> pattern list

  (** [relax t] forgets every root declaration {e and} every prefix (all
      patterns become [Any]-rooted, unpruned): the unindexed-dispatch
      baseline of test/test_intern.ml's dispatch tests ("dispatch
      variants agree on the Figure-9 suite" pins its attempt counts).
      Rewriting behaviour is identical by the {!roots}/{!type-prefix}
      contracts; only match-attempt counts differ. *)
  val relax : t -> t

  (** [strip_prefixes t] keeps root indexing but drops every prefix:
      root-index-only dispatch. test/test_intern.ml's dispatch tests use
      it to attribute attempt reductions to the prefix trees separately
      from root indexing. *)
  val strip_prefixes : t -> t
end

(** [freeze ps] stable-sorts [ps] by descending benefit (ties keep list
    order), numbers the sorted patterns (a pattern's number is its
    counter slot in every driver run over the set), and indexes the
    benefit-sorted candidate list per declared root name, with
    [Any]-rooted patterns merged into every list. Each bucket's declared
    {!type-prefix}es are additionally compiled into a shared decision
    tree (operand arity -> region arity -> nest-spine probes), so the
    drivers evaluate every structural feature at most once per op visit
    regardless of how many candidates test it. *)
val freeze : pattern list -> Frozen.t

(** {2 Drivers}

    All drivers are observable: each run is bracketed in a {!Trace} span
    (category ["driver"]) whose End event carries the application count,
    and every pattern attempt emits an instant event (category
    ["pattern"]) when a trace sink is installed. On a successful
    application the driver stamps each op the rewrite inserted with a
    {!Core.derivation} — the pattern name plus the known source
    locations of the matched op and everything the rewrite erased — and
    propagates a source location onto location-less inserted ops, so
    raised ops answer "where did this come from?"
    ([--print-debug-locs]). A [Diag.Error] escaping a pattern body with
    no location is re-raised carrying the matched op's location. *)

(** [apply_greedily root frozen] applies the highest-benefit matching
    pattern per op to a fixpoint using a worklist: the queue is seeded
    with a post-order walk (nested ops before their nests), and each
    successful rewrite re-enqueues only the affected neighborhood —
    newly inserted ops, ops whose operands changed, the defining ops of
    an erased op's operands, and the enclosing-op chain of each (so
    nest-level raising patterns see interior changes). Each visit tries
    only [Frozen.candidates_for frozen op]. Raises after a safety bound
    of applications (diverging pattern set). Returns the number of
    successful pattern applications. *)
val apply_greedily : Core.op -> Frozen.t -> int

(** [apply_greedily_fullsweep root frozen] — the pre-worklist driver:
    full sweep from the root, restarted after every application. Same
    fixpoints as {!apply_greedily} on confluent pattern sets; kept as
    the oracle for the differential property test and for debugging
    driver regressions. *)
val apply_greedily_fullsweep : Core.op -> Frozen.t -> int

(** [apply_sweeps root frozen] applies patterns in full sweeps without
    restarting after each application, iterating sweeps to a fixpoint —
    the efficient driver for exhaustive one-way conversions (dialect
    lowerings) where each op is rewritten at most once. Returns the
    number of applications. *)
val apply_sweeps : Core.op -> Frozen.t -> int

(** {2:stats Driver statistics}

    Each driver run counts, per pattern of its frozen set, the
    [p_apply] invocations ("attempts") and the ones that rewrote the IR
    ("hits"). When the run ends — also when it raises — it publishes
    those counts to the calling domain's totals ({!counter_totals}) and
    to every {!tally} open on that domain. Nothing is shared between
    domains, so concurrent compilations never race, and each domain's
    counts describe exactly its own work. {!Pass.run} opens a tally
    around each pass; multi-domain drivers merge per-domain results with
    {!Pass.merge_summaries}. *)

(** [counter_totals ()] is [(match_attempts, rewrites)] accumulated by
    the calling domain's driver runs since the domain started. *)
val counter_totals : unit -> int * int

(** One pattern-name row of a {!tally}. *)
type pattern_stat = {
  ps_name : string;
  ps_attempts : int;
  ps_hits : int;
  ps_activations : int;
      (** driver runs that had the pattern in their set, whether or not
          dispatch ever attempted it — so 0-attempt tactics still show
          up in the per-pass reports *)
}

(** The counts of the driver runs that ended on the calling domain while
    the tally was open. *)
type tally

(** A fresh, empty tally. *)
val tally : unit -> tally

(** [with_tally t f] runs [f ()] with [t] open on the calling domain
    (exception-safely closing it afterwards). Tallies nest: every open
    tally receives every run. *)
val with_tally : tally -> (unit -> 'a) -> 'a

(** [tally_counts t] is [(match_attempts, rewrites, rows)], [rows]
    merged by pattern name and sorted by it. *)
val tally_counts : tally -> int * int * pattern_stat list

(** {2 Rewrite helpers} *)

(** [replace_op ctx op values] replaces all uses of [op]'s results under
    the driver root by [values] and erases [op]. *)
val replace_op : ctx -> Core.op -> Core.value list -> unit

(** [replace_op_local ctx op values] — like {!replace_op} but only
    rewrites uses within [op]'s enclosing block (including nested
    regions). Correct whenever the results cannot escape the block —
    true for scalar SSA values in this IR's structured control flow —
    and much cheaper on large functions. *)
val replace_op_local : ctx -> Core.op -> Core.value list -> unit
