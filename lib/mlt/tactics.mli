(** The standard tactic set shipped with Multi-Level Tactics, plus the
    built-in fill-raising pattern.

    The paper's tactics cover GEMM (Listing 8), matrix-vector products in
    both orientations, 2-d convolution, and TTGT for tensor contractions;
    the benchmark contraction tactics are generated from their index
    specs through the full TDL → TDS → backend pipeline. Initialization
    raising ([C(i,j) = const] → [linalg.fill]) is an infrastructure
    addition of this reproduction needed by the matrix-chain rewriter. *)

open Ir

(** TDL source of the standard tactics (gemm, matvec, matvec-transposed,
    conv2d). *)
val standard_tdl : string

(** Compiled standard tactics targeting Linalg. *)
val standard : unit -> Rewriter.pattern list

(** Tactics for the seven paper contractions (TTGT), generated from
    {!Workloads.Contraction_spec.paper_benchmarks}. *)
val paper_contractions : unit -> Rewriter.pattern list

(** [contraction spec] — TTGT tactic for one contraction spec. *)
val contraction : Workloads.Contraction_spec.t -> Rewriter.pattern

(** Raise full-array constant-initialization nests to [linalg.fill]. *)
val fill_pattern : unit -> Rewriter.pattern

(** Everything: standard + paper contractions + fill. *)
val all : unit -> Rewriter.pattern list

(** {!all}, frozen: the [transform.raise] step's [linalg] set. Built on
    the first call process-wide (a {!Support.Once} cell); every call
    returns the same immutable set, shareable across domains. *)
val linalg_set : unit -> Rewriter.Frozen.t

(** The frozen GEMM tactic targeting [affine.matmul]: the
    [affine-matmul] set, built once like {!linalg_set}. *)
val affine_matmul_set : unit -> Rewriter.Frozen.t

(** [raise_to_linalg root] applies {!linalg_set} greedily; returns the
    number of raised sites. *)
val raise_to_linalg : Core.op -> int

(** [raise_to_affine_matmul root] — the §5.1 path: GEMM loop nests become
    [affine.matmul] (flag [-raise-affine-to-affine]) by applying
    {!affine_matmul_set}. *)
val raise_to_affine_matmul : Core.op -> int
