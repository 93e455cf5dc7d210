(** The [memref] dialect subset: buffer allocation and deallocation. *)

(** [alloc b typ] — [typ] must be a fully static memref type. *)
val alloc : Ir.Builder.t -> ?hint:string -> Ir.Typ.t -> Ir.Core.value

val dealloc : Ir.Builder.t -> Ir.Core.value -> unit

val is_alloc : Ir.Core.op -> bool

(** [load b memref indices]: a plain (non-affine) indexed load, produced
    when lowering the affine dialect to SCF. Indices are index-typed SSA
    values, one per memref dimension. *)
val load : Ir.Builder.t -> Ir.Core.value -> Ir.Core.value list -> Ir.Core.value

val store :
  Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value list ->
  Ir.Core.op
