(** Reference implementations of the high-level operations (Linalg and
    BLAS dialects) used by the interpreter. All follow the accumulating
    buffer semantics documented in {!Linalg.Linalg_ops}. *)

val matmul : Buffer.t -> Buffer.t -> Buffer.t -> unit

(** [matvec ?transpose a x y]: y += A x, or y += Aᵀ x when [transpose]. *)
val matvec : ?transpose:bool -> Buffer.t -> Buffer.t -> Buffer.t -> unit

val transpose : perm:int array -> Buffer.t -> Buffer.t -> unit

(** Reshape between row-major contiguous buffers is a plain copy. *)
val reshape_copy : Buffer.t -> Buffer.t -> unit

val conv2d_nchw : Buffer.t -> Buffer.t -> Buffer.t -> unit

(** [contract ~loc ~maps ~dims a b c]: generic contraction over the
    iteration space [dims]; [maps] take the space to each operand's
    subscripts, staged by {!Affine.Stage} (a map it rejects fails at
    [loc]). *)
val contract :
  loc:Support.Loc.t -> maps:Ir.Affine_map.t list -> dims:int array ->
  Buffer.t -> Buffer.t -> Buffer.t -> unit

val fill : float -> Buffer.t -> unit

(** Iteration-space extents for a [linalg.contract]: inferred by matching
    each map result expression against the operand shapes. Raises
    {!Support.Diag.Error} if some dimension is unconstrained or
    inconsistent. *)
val infer_contract_dims :
  maps:Ir.Affine_map.t list -> shapes:int array list -> int array
