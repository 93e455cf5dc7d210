(** Reference implementations of the high-level operations (Linalg and
    BLAS dialects) used by the interpreter. All follow the accumulating
    buffer semantics documented in {!Linalg.Linalg_ops}. *)

val matmul : Buffer.t -> Buffer.t -> Buffer.t -> unit

(** [matvec ?transpose a x y]: y += A x, or y += Aᵀ x when [transpose]. *)
val matvec : ?transpose:bool -> Buffer.t -> Buffer.t -> Buffer.t -> unit

(** [transpose ~perm src dst]: dst dim [d] is src dim [perm.(d)]. Walks
    [dst] in order and [src] by its strides permuted by [perm]. *)
val transpose : perm:int array -> Buffer.t -> Buffer.t -> unit

(** Reshape between row-major contiguous buffers is a plain copy. *)
val reshape_copy : Buffer.t -> Buffer.t -> unit

(** [conv2d_nchw i w o]: o += conv(i, w) by strides, each output's
    products added in {!contract}'s order over the [blas.sconv2d] maps
    (channel, kernel row, kernel column), so the two agree bit for bit. *)
val conv2d_nchw : Buffer.t -> Buffer.t -> Buffer.t -> unit

(** [contract ~loc ~maps ~dims a b c]: generic contraction over the
    iteration space [dims]; [maps] take the space to each operand's
    subscripts, staged by {!Affine.Stage} (a map it rejects fails at
    [loc]). *)
val contract :
  loc:Support.Loc.t -> maps:Ir.Affine_map.t list -> dims:int array ->
  Buffer.t -> Buffer.t -> Buffer.t -> unit

val fill : float -> Buffer.t -> unit

(** [library op]: the kernel that runs a Linalg, BLAS or [affine.matmul]
    op on its operands' buffers, attributes decoded once; [None] for any
    other op. Both engines dispatch through it. Named ops keep their own
    kernels: {!contract} costs a closure per subscript per point. *)
val library : Ir.Core.op -> (Buffer.t array -> unit) option
