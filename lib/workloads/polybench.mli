(** Mini-C sources for the evaluation workloads: the Polybench 4.2 linear
    algebra subset used in Figure 9, the GEMM style variants of Figure 8
    (including the Darknet-style linearized kernel), conv2d-nchw, and the
    matrix chains of Table II.

    Following the paper we restrict Polybench to the kernels that map to
    the available Linalg operations, and (like the artifact) pre-scale
    alpha/beta to 1 so the accumulation statements are plain contractions;
    initialization/update statements remain and are separated by MET's
    loop distribution. All sources are generated at the scaled-down
    default sizes unless explicit dimensions are passed. *)

(** [gemm ~ni ~nj ~nk ()]: C *= beta-style init then C += A*B. *)
val gemm : ?ni:int -> ?nj:int -> ?nk:int -> ?name:string -> unit -> string

(** Plain triple-loop matmul without initialization (the [mm] style of
    Figure 8). *)
val mm : ?ni:int -> ?nj:int -> ?nk:int -> ?name:string -> unit -> string

val two_mm : ?ni:int -> ?nj:int -> ?nk:int -> ?nl:int -> unit -> string
val three_mm :
  ?ni:int -> ?nj:int -> ?nk:int -> ?nl:int -> ?nm:int -> unit -> string

(** Darknet-style GEMM over linearized (rank-1) buffers — the kernel the
    2-d GEMM tactic must miss in Figure 8. *)
val darknet_gemm : ?m:int -> ?n:int -> ?k:int -> unit -> string

val atax : ?m:int -> ?n:int -> unit -> string
val bicg : ?m:int -> ?n:int -> unit -> string
val mvt : ?n:int -> unit -> string
val gesummv : ?n:int -> unit -> string
val gemver : ?n:int -> unit -> string

val conv2d_nchw :
  ?n:int -> ?c:int -> ?h:int -> ?w:int -> ?f:int -> ?kh:int -> ?kw:int ->
  unit -> string

(** {2 Negative controls}

    Kernels the paper excluded from Figure 9 "that cannot be mapped to
    current available Linalg operations": triangular iteration spaces
    (syrk, trmm) and an output indexed by both inputs (doitgen's
    in-place writeback). The tactics must {e not} fire on them — tested
    in [test_workloads_negative]. (Our mini-C subset has no triangular
    bounds, so syrk/trmm use the closest expressible shapes that still
    defeat the tactics: symmetric-output and in-place aliasing.) *)

(** syrk-like update C(i,j) += A(i,k) * A(j,k): both inputs are the same
    array — the tactic's array-distinctness constraint must reject it. *)
val syrk_like : ?n:int -> ?k:int -> unit -> string

(** trmm-like in-place update B(i,j) += A(i,k) * B(k,j): the output
    aliases an input. *)
val trmm_like : ?n:int -> unit -> string

(** doitgen's writeback shape: sum(r,q,p) then A(r,q,p) = sum(r,q,p) in
    the same nest — distribution isolates the contraction, which matches
    a matvec-like tactic, but the copy-back stays at the loop level. *)
val doitgen : ?r:int -> ?q:int -> ?p:int -> unit -> string

(** [matrix_chain dims] for dims [[p0; p1; ...; pn]]: computes
    [R = A1 x A2 x ... x An] left-to-right with explicit zero-initialized
    temporaries, where [Ai] is [p_{i-1} x p_i]. *)
val matrix_chain : int list -> string

(** Names and sources of the 16 Figure-9 kernels at reproduction sizes,
    with the flop count of the mathematical operation. *)
val figure9_suite : unit -> (string * string * float) list

(** The same 16 kernels at tiny sizes, for interpreter-based semantic
    tests (flop counts omitted). *)
val tiny_suite : unit -> (string * string) list
