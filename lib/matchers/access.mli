(** Access-pattern matchers (§III-C): placeholders, array placeholders and
    matching contexts.

    A placeholder ([m_Placeholder]) matches affine subscript terms of the
    form [k*ι + c] where [ι] is a candidate induction variable; sums of
    such terms are also expressible (needed for convolution windows like
    [oh + kh]). An array placeholder ([m_ArrayPlaceholder]) matches a
    memref value. Candidates assigned to different placeholders must be
    distinct, while repeated references to the same placeholder must
    resolve to the same candidate; the matcher backtracks over candidate
    assignments until the whole statement pattern is satisfied.

    Matching starts from the last store of a block and walks backwards
    along use-def chains, verifying that the block contains exactly the
    operations of the pattern (Listing 7). *)

open Ir

type ctx
type placeholder
type array_placeholder

val create_ctx : unit -> ctx

(** [m_Placeholder] *)
val placeholder : ctx -> placeholder

(** [m_ArrayPlaceholder] *)
val array_placeholder : ctx -> array_placeholder

(** {2 Pattern index expressions} *)

type pexpr

(** A bare placeholder. *)
val p : placeholder -> pexpr

(** [term ~coeff ~shift ph] is [coeff * ph + shift]. *)
val term : ?coeff:int -> ?shift:int -> placeholder -> pexpr

(** A constant subscript (no placeholder terms). *)
val pconst : int -> pexpr

(** Sum of placeholder terms (e.g. a convolution window [x + r]). *)
val padd : pexpr -> pexpr -> pexpr

(** {2 Statement patterns} *)

type access

(** [access arr idxs] — the paper's [_A({_i, _j})]. *)
val access : array_placeholder -> pexpr list -> access

type stmt_pattern =
  | Contraction of { out : access; in1 : access; in2 : access }
      (** [out += in1 * in2] — loads/stores plus one mul and one add,
          matched commutatively *)
  | Init_const of { out : access }  (** [out = <float literal>] *)
  | Copy of { out : access; src : access }  (** [out = src] *)

(** [match_block ctx pat block] — on success the context holds the
    solution; on failure the context is reset. A ctx is single-use:
    matching again with the same ctx raises (via [Support.Diag]) instead
    of silently clobbering the previous solution's bindings — call
    {!reset_ctx} (or create a fresh ctx) to match again. *)
val match_block : ctx -> stmt_pattern -> Core.block -> bool

(** Clear the solution state and the consumed flag so the ctx (and its
    placeholders) can be used for another [match_block]. *)
val reset_ctx : ctx -> unit

(** {2 Rejection reporting} *)

(** Which stage rejected a failed {!match_block}: [Shape] — the block's
    op chain does not have the pattern's form (op counts, load/store
    structure, arithmetic ops); [Unify] — the op chain matched, but the
    array subscripts could not be unified with the pattern accesses. *)
type reject = Shape | Unify

(** After a failed [match_block]: the rejecting stage ([None] after a
    success or before any match). Survives {!reset_ctx}-free re-reads;
    overwritten by the next [match_block] on this ctx. *)
val last_reject : ctx -> reject option

(** {2 Reading the solution} (valid only after a successful match) *)

val iv_of : ctx -> placeholder -> Core.value
val array_of : ctx -> array_placeholder -> Core.value

(** Constant matched by [Init_const]. *)
val const_of : ctx -> float

(** [solution_extent ctx ph]: trip count of the loop binding the matched
    induction variable, when its bounds are constant. *)
val solution_extent : ctx -> placeholder -> int option
