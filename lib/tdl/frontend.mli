(** The TDL DSL frontend: processes the declarative specification and
    emits the TableGen-based TDS entry (§III, Figure 3, orange box).

    Two paths:
    - a tactic with an explicit [builder] section (Listing 3) has each
      builder statement translated to transpose/reshape/matmul steps
      (the Listing 3 → Listing 4 mapping);
    - a tactic with only a [pattern] (Listing 8) is {e classified} —
      matmul, matvec (either orientation), conv2d — and, for general
      tensor contractions, the TTGT (Transpose-Transpose-GEMM-Transpose)
      builder sequence is synthesized automatically: inputs are permuted
      so free and contracted index groups are contiguous, reshaped to
      matrices, multiplied, and the result folded back. Redundant steps
      (identity permutations, singleton groupings) are elided, so a plain
      GEMM pattern lowers to a single [matmulBuilder]. *)

(** [lower tactic] — raises {!Support.Diag.Error}, located at the
    tactic's [def], on patterns outside the supported contraction forms. *)
val lower : Tdl_ast.tactic -> Tds.tactic

(** [lower_source src] — parse TDL and lower every tactic. *)
val lower_source : ?file:string -> string -> Tds.tactic list

(** [gemm_tdl] — the Listing 8 tactic source. *)
val gemm_tdl : string

(** [ttgt_tdl] — the Listing 3 tactic source. *)
val ttgt_tdl : string

(** [contraction_tdl ~name spec_out spec_in1 spec_in2] builds TDL source
    for an arbitrary contraction, e.g.
    [contraction_tdl ~name:"T" "abc" "acd" "db"] — used to generate the
    benchmark tactics from paper specs. *)
val contraction_tdl : name:string -> string -> string -> string -> string
