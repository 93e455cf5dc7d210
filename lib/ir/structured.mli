(** Structured contraction ops, described once. [linalg.matmul],
    [blas.sgemm], [affine.matmul], [linalg.matvec], [blas.sgemv],
    [linalg.conv2d_nchw], [blas.sconv2d] and [linalg.contract] each
    compute [out(m_out(d)) += in1(m_1(d)) * in2(m_2(d))] over an iteration
    space [d]; their indexing maps [[m_1; m_2; m_out]] say the rest, as in
    MLIR's structured ops:
    - matmul: [A (d0,d2)], [B (d2,d1)], [C (d0,d1)];
    - matvec: [A (d0,d1)], [x (d1)], [y (d0)]; with [transpose = true],
      [x (d0)] and [y (d1)];
    - conv2d_nchw: [I (d0,d4,d2+d5,d3+d6)], [W (d1,d4,d5,d6)],
      [O (d0,d1,d2,d3)];
    - contract: its [indexing_maps] attribute.

    The verifier, the Linalg lowering, the interpreter's kernels and the
    machine model's library times all read these maps. *)

(** [Some [m_1; m_2; m_out]] for a contraction op, [None] for any other. *)
val maps : Core.op -> Affine_map.t list option

(** Whether a matvec carries [transpose = true]. *)
val transposed : Core.op -> bool

(** [iteration_dims ~maps ~shapes] binds each dim that some map result
    names bare to that operand's extent. Raises {!Support.Diag.Error}
    when the maps disagree on their dim count or an operand's rank, or a
    dim is bound to two extents or to none. *)
val iteration_dims :
  maps:Affine_map.t list -> shapes:int array list -> int array

(** {!iteration_dims} of a contraction op over its operands' static
    shapes; errors are located at the op. *)
val dims : Core.op -> int array

(** The verifier of every contraction op: three operands and three maps
    without symbols, consistent {!iteration_dims}, and every subscript
    spanning exactly [0, extent) of its operand dimension over the
    iteration space (so conv's output is [h - kh + 1] high). *)
val verify : Core.op -> unit

(** The buffer a Linalg, BLAS or [affine.matmul] op writes: its last
    operand. [None] for any other op. *)
val destination : Core.op -> Core.value option
