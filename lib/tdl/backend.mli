(** Multi-Level Tactics backend: compiles a TDS entry into matcher and
    builder code hooked into the pattern-rewrite engine (§III, Figure 3 —
    where the paper's TableGen backend generates C++, we generate
    closures).

    The generated pattern, applied to an [affine.for]:
    - structurally matches a perfect nest whose depth equals the number of
      pattern index variables, with unit steps and constant bounds
      starting at 0;
    - runs the generated access matchers on the innermost block;
    - validates that the matched iteration space covers the accessed
      arrays exactly (every subscript spans [0, extent) of its memref
      dimension, and every nest loop is bound to a placeholder) — partial
      contractions must not be raised;
    - on success executes the builder steps, allocating intermediate
      buffers (shape inference runs forward and backward over the step
      list), inserting the high-level operations before the nest, and
      erasing the nest. *)

type target =
  | To_linalg  (** [-raise-affine-to-linalg] *)
  | To_affine_matmul
      (** [-raise-affine-to-affine] (§5.1): only for pure-GEMM tactics *)

(** [compile ?target tds] — raises {!Support.Diag.Error} at compile time
    for tactics unsupported by the target (e.g. TTGT under
    [To_affine_matmul]). *)
val compile : ?target:target -> Tds.tactic -> Ir.Rewriter.pattern

(** Convenience: TDL source → compiled rewrite patterns. *)
val compile_tdl : ?target:target -> string -> Ir.Rewriter.pattern list
