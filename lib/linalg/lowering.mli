(** The loop nest of every structured op: the one statement of what a
    Linalg, BLAS or [affine.matmul] op computes.

    A contraction ({!Ir.Structured.maps}) lowers to one [affine.for] per
    iteration-space dim, outermost first, around
    [out(m_out(d)) = out(m_out(d)) + in1(m_1(d)) * in2(m_2(d))];
    a transpose to a copy nest over the output's shape; a reshape to a
    copy whose input subscripts delinearize the row-major offset
    ([floordiv]/[mod] maps); a fill to a store of the constant.
    [Transforms.Lower_linalg] rewrites Linalg ops into these nests, and
    the interpreter runs contractions and transposes as them. *)

open Ir

(** [lower b op operands] builds at [b] the nest computing [op] with
    [operands] standing for [op]'s operands (its own, or the arguments of
    a block that stands for them), and answers [true]; [false], building
    nothing, for an op that is not a contraction, a transpose
    ([linalg.transpose], [blas.stranspose]), a [linalg.reshape] or a
    [linalg.fill]. Raises {!Support.Diag.Error} on a dynamic shape. *)
val lower : Builder.t -> Core.op -> Core.value array -> bool
