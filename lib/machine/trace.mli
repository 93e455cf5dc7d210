(** Trace-driven simulation of affine loop nests: the nest is compiled to
    closures once, then its full iteration space is walked; every
    [affine.load]/[affine.store] produces a byte address that probes the
    cache hierarchy, while arithmetic is counted statically per iteration.
    Bounds, loop levels ({!Affine.Stage.level}, the staging the
    interpreter's fused nests share), [affine.apply] results and access
    offsets are staged by {!Affine.Stage} over one [int array] frame; a
    byte address is the buffer's base plus 4 bytes per element of offset.

    A perfect nest whose innermost body is straight-line (only accesses
    with linear addresses, float arithmetic and float constants) runs as
    one walk: each site's {!Affine.Stage.strided} base is evaluated once
    per nest entry, every level moves each site's address by its
    coefficient times the iv, and outer levels write their iv slot, so
    [min]/[max] bounds hold. The sites' split into movers and stayers
    ({!Cache.plan}) and which levels can repeat their line sequence are
    staged once per nest. Each innermost entry is one
    {!Cache.run_strided} walk over the sites, or, when it repeats the
    entry before it (same trip count and line sequence, no L1 probe in
    between) and {!Cache.chain}'s rule allows, a {!Cache.replay} of
    that entry's L1 outcome. In a nest at least two deep whose movers
    each keep one L1 set ({!Cache.one_set_movers}), an entry whose
    movers alone repeat, with its stayers out of those sets, replays
    the movers and probes the stayers ({!Cache.replay_movers}). An
    iteration of an outer level that can repeat replays its whole
    sub-walk (every deeper level) by the same rule, from a log of the
    sub-walk's misses, with its iteration, flop and access counts.
    Every other body runs op by op.
    All give the same report bit for bit. What is left here is the
    cache probes, the window and replay skips, and the cost
    accounting.

    Vectorizability follows the Clang-style check the paper's baselines
    rely on: an innermost loop whose accesses all have address stride 0 or
    one element w.r.t. its induction variable is issued at the machine's
    vector rate, otherwise at the scalar rate. *)

open Ir

type stats = {
  mutable flops_scalar : float;
  mutable flops_vector : float;
  mutable mem_cycles : float;
  mutable iterations : float;
  mutable accesses : float;
}

val empty_stats : unit -> stats

(** Base byte addresses per buffer value id. *)
type address_map = (int, int) Hashtbl.t

(** [assign_addresses func] lays out arguments and allocations. *)
val assign_addresses : Core.op -> address_map

(** [simulate m hierarchy addresses stats ops] executes the given
    top-level affine ops (loops and straight-line affine/arith code),
    accumulating into [stats]. Raises {!Support.Diag.Error}, before it
    simulates any of [ops], on non-affine ops, on maps {!Affine.Stage}
    rejects (prefixed ["trace: "]), on an index value [ops] read but do
    not define, and on an access that {!Affine.Bounds} proves out of its
    memref. It raises one during the
    walk on an [arith.floordivsi]/[arith.remsi] by zero; both floor,
    like the interpreter. Every error is located at the offending op, or
    at its nearest located ancestor ({!Ir.Core.nearest_loc}). *)
val simulate :
  ?fast_math:bool ->
  Machine_model.t ->
  Cache.hierarchy ->
  address_map ->
  stats ->
  Core.op list ->
  unit

(** [count m addresses stats ops]: {!simulate}'s walk with probing
    switched off at staging time. Access closures and straight-line
    innermost entries only count, no hierarchy is read, and nothing
    replays, so [stats] gains exactly the iterations, flops and accesses
    {!simulate} adds, bit for bit, and no [mem_cycles]. Staging is
    {!simulate}'s, so it raises the same errors. *)
val count :
  ?fast_math:bool ->
  Machine_model.t ->
  address_map ->
  stats ->
  Core.op list ->
  unit

(** [is_vectorizable ?fast_math loop] — exposed for tests: the
    innermost-loop unit-stride check. Reductions (stores invariant in the
    loop iv) only vectorize under [fast_math] (reassociation). *)
val is_vectorizable : ?fast_math:bool -> Core.op -> bool
