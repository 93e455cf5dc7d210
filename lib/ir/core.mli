(** The IR object graph: SSA values, operations, blocks and regions.

    Mirrors MLIR's structure: an {e operation} has operands, results,
    attributes and nested {e regions}; a region holds {e blocks}; a block
    holds block arguments and an ordered list of operations. Functions and
    modules are themselves operations ([func.func], [builtin.module]), so a
    single recursive structure describes whole programs.

    Use-def information is stored in both directions: [v_def] points at the
    defining op/block-arg, and [v_uses] is an intrusive use-list maintained
    by every operand write ([create_op], [set_operand], [replace_uses],
    [erase_op]), so [uses]/[has_uses]/[replace_uses] cost O(users) instead
    of a whole-module walk. *)

type value = {
  v_id : int;
  mutable v_typ : Typ.t;
      (** mutable for type-rewriting passes (e.g. delinearization); the
          rewriter must keep every use consistent and re-verify *)
  mutable v_hint : string option;  (** printer name hint, e.g. ["i"] *)
  mutable v_def : vdef;
  mutable v_uses : (op * int) list;
      (** intrusive use-list, newest first; maintained by Core's own
          operand writes — mutate operands only through Core functions *)
}

and vdef =
  | Def_op of op * int  (** result [i] of an operation *)
  | Def_block_arg of block * int

and op = {
  o_id : int;
  o_name : string;  (** fully qualified, e.g. ["affine.for"] *)
  mutable o_operands : value array;
  mutable o_results : value array;
      (** mutable only to tie the construction knot; never reassigned *)
  mutable o_attrs : (string * Attr.t) list;
  o_regions : region array;
  mutable o_parent : block option;
  mutable o_loc : Support.Loc.t;
      (** source location: where the frontend/parser created this op, or
          (for derived ops) the location of the first known source op *)
  mutable o_prov : derivation list;
      (** provenance chain, newest derivation first; empty for ops that
          came straight from a frontend *)
}

(** One provenance step: the pattern that emitted the op, plus the known
    source locations of the ops the rewrite consumed. *)
and derivation = { dv_pattern : string; dv_locs : Support.Loc.t list }

and block = {
  b_id : int;
  mutable b_args : value array;
  mutable b_head : op list;
      (** forward prefix of the op sequence; read through {!ops_of_block} *)
  mutable b_tail_rev : op list;
      (** pending O(1) appends, in reverse; flushed into [b_head] on read *)
  mutable b_parent : region option;
}

and region = {
  r_id : int;
  mutable r_blocks : block list;
  mutable r_parent : op option;
      (** the op owning this region; set once, by {!create_op} *)
}

(** {2 Construction} *)

(** [create_op name ~operands ~result_types ~attrs ~regions] builds a
    detached operation and its result values, registering the op on each
    operand's use-list and making it the owner ([r_parent]) of each of
    [regions], which must be fresh. [loc] defaults to the ambient location
    ({!with_loc}). *)
val create_op :
  ?loc:Support.Loc.t ->
  ?operands:value list ->
  ?result_types:Typ.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:region list ->
  string ->
  op

(** {2 Locations and provenance} *)

(** [with_loc loc f] runs [f ()] with [loc] as the ambient source
    location: every op created inside (without an explicit [?loc]) is
    stamped with it. Nests; exception-safe; domain-local (the ambient
    location set on one domain is invisible to every other domain).
    Frontends scope each statement's emission with this. *)
val with_loc : Support.Loc.t -> (unit -> 'a) -> 'a

val op_loc : op -> Support.Loc.t
val set_loc : op -> Support.Loc.t -> unit

(** Push a derivation onto the op's provenance chain (newest first). *)
val add_derivation : op -> derivation -> unit

val provenance : op -> derivation list

(** [create_block arg_types] builds a detached block with fresh argument
    values; [hints] optionally names them. *)
val create_block : ?hints:string list -> Typ.t list -> block

val create_region : block list -> region

(** {2 Accessors} *)

val result : op -> int -> value
val operand : op -> int -> value
val num_operands : op -> int
val num_results : op -> int

val attr : op -> string -> Attr.t
(** Raises [Invalid_argument] if absent; [find_attr] for the option form. *)

val find_attr : op -> string -> Attr.t option
val set_attr : op -> string -> Attr.t -> unit

val region : op -> int -> region

(** Sole block of the operation's [i]-th region (raises if not single-block). *)
val single_block : op -> int -> block

(** The parent operation owning the block this op lives in, if attached. *)
val parent_op : op -> op option

(** The op's location if it is known, else its nearest located
    ancestor's ([o_loc] itself when none is). *)
val nearest_loc : op -> Support.Loc.t

(** The op owning the block's region ([None] for a block outside any
    region). A plain pointer read: it answers the same on every domain. *)
val block_parent_op : block -> op option

(** [is_under ~root op] — is [op] equal to [root] or transitively nested
    inside it (following parent pointers)? Detached ops are under nothing
    but themselves, and an erased op's subtree is under nothing outside
    it. *)
val is_under : root:op -> op -> bool

(** Always [0]. There is no region registry any more; the stub remains
    only because the benchmark driver still reports it as
    [ir.retained_regions], and goes with that metric. *)
val region_registry_size : unit -> int

(** {2 Mutation listeners}

    IR mutations are observed through a {e domain-local stack} of
    listeners: the worklist rewrite driver installs one for the duration
    of a driver run, and the rewriter's provenance collector installs
    another per pattern attempt. Every notification reaches every
    listener installed on the mutating domain; listeners on other
    domains are never invoked. *)

type listener = {
  on_op_inserted : op -> unit;  (** fired after attaching an op to a block *)
  on_op_erased : op -> unit;
      (** fired at the start of {!erase_op}, while operands are intact *)
  on_operand_update : op -> unit;
      (** fired after {!set_operand} changes an operand *)
}

(** [with_listener l f] runs [f ()] with [l] pushed onto the calling
    domain's listener stack, restoring the previous stack afterwards
    (exception-safe, so drivers and collectors nest freely — and a
    [Diag.Error] escaping [f], or the listener itself raising mid-notify,
    still pops [l]). *)
val with_listener : listener -> (unit -> 'a) -> 'a

(** Current depth of the calling domain's listener stack (0 outside any
    {!with_listener} scope). Exposed for exception-safety regression
    tests. *)
val listener_depth : unit -> int

(** {2 Block surgery} *)

val append_op : block -> op -> unit
(** O(1): pushes onto the block's pending tail. *)

(** [insert_before ~anchor op] places [op] just before [anchor] in the
    anchor's block. Raises if [anchor] is detached. *)
val insert_before : anchor:op -> op -> unit

val insert_after : anchor:op -> op -> unit

(** Detach [op] from its block (no-op if already detached). *)
val detach_op : op -> unit

(** Remove [op] from live IR: fires the erase listeners, detaches it and
    structurally invalidates its subtree by clearing operand arrays (so
    the use-lists of surviving values stay exact). Erased ops must not be
    reused. A dropped module needs no erase: nothing outside it points
    into it, so the GC reclaims it. *)
val erase_op : op -> unit

(** {2 Use-def queries and mutation} *)

(** [defining_op v] is [Some op] when [v] is an op result. *)
val defining_op : value -> op option

(** [uses root v] lists [(user, operand index)] pairs attached under
    [root] (inclusive of [root] itself), oldest registration first.
    O(total users of [v]). *)
val uses : op -> value -> (op * int) list

(** [has_uses root v] — does any attached op under [root] use [v]?
    Early-exits, so cheaper than [uses root v <> []]. *)
val has_uses : op -> value -> bool

(** [replace_uses root ~old_v ~new_v] rewrites every operand under [root].
    O(users of [old_v]). *)
val replace_uses : op -> old_v:value -> new_v:value -> unit

(** [replace_uses_in_block block ~old_v ~new_v] — like {!replace_uses} but
    scoped to users inside [block] (including nested regions). *)
val replace_uses_in_block : block -> old_v:value -> new_v:value -> unit

val set_operand : op -> int -> value -> unit

(** {2 Traversal} *)

(** Pre-order walk over [root] and all transitively nested operations. *)
val walk : op -> (op -> unit) -> unit

(** Post-order variant (children before parents). *)
val walk_post : op -> (op -> unit) -> unit

(** A walk that may erase/replace the visited op: iterates over a
    snapshot. *)
val walk_safe : op -> (op -> unit) -> unit

(** First nested op (pre-order, excluding root) satisfying the predicate. *)
val find_op : op -> (op -> bool) -> op option

(** The block's ops in order. Flushes pending appends; always read the
    sequence through this, never the raw fields. *)
val ops_of_block : block -> op list

(** {2 Module / function conveniences} *)

(** [create_module ()] builds an empty [builtin.module] with one region and
    one block. *)
val create_module : unit -> op

val module_block : op -> block

(** [create_func ~name ~arg_types ?arg_hints ~result_types ()] builds a
    [func.func] op whose region has an entry block with the argument
    values. *)
val create_func :
  name:string ->
  arg_types:Typ.t list ->
  ?arg_hints:string list ->
  ?result_types:Typ.t list ->
  unit ->
  op

val func_name : op -> string
val func_entry : op -> block
val func_args : op -> value list
val is_func : op -> bool

(** [find_func m name] looks up a function by symbol name in a module. *)
val find_func : op -> string -> op option

(** {2 Deep copy} *)

(** [clone_op op] deep-copies an operation tree. Operands defined outside
    the cloned tree are kept as-is; values defined inside are remapped. *)
val clone_op : op -> op

(** [clone_ops ops] deep-copies a sequence of operations with a shared
    remap table, so references between the clones stay internal (what a
    loop-body duplication needs). *)
val clone_ops : op list -> op list

(** [structural_equal a b]: the two op trees compute alike, node for
    node: the same op names; the same operand, result, region, block and
    block-argument counts; result and block-argument types {!Typ.equal};
    attributes in the same order with the same names and
    {!Attr.equal} values (floats by bits, so [-0.] and [0.] differ);
    and each operand the value defined in the same place, or the same
    value when it is defined outside the tree. Value names and ids,
    locations and provenance are ignored, so [structural_equal op
    (clone_op op)] holds. *)
val structural_equal : op -> op -> bool

(** Equality by identity (ops and values are unique graph nodes). *)
val op_equal : op -> op -> bool

val value_equal : value -> value -> bool
