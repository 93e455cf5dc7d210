(** The [arith] dialect: scalar constants and arithmetic.

    The paper's Listing 1 uses the then-current [std.mulf]/[std.addf]
    spelling; we use the modern [arith.*] names. *)

(** {2 Builders} *)

val constant_float : Ir.Builder.t -> ?typ:Ir.Typ.t -> float -> Ir.Core.value
val constant_int : Ir.Builder.t -> ?typ:Ir.Typ.t -> int -> Ir.Core.value
val constant_index : Ir.Builder.t -> int -> Ir.Core.value

val addf : Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value
val subf : Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value
val mulf : Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value
val divf : Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value
val addi : Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value
val subi : Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value
val muli : Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value

(** Floor division and (non-negative) remainder, used when lowering
    affine access maps with [floordiv]/[mod] to SCF-level arithmetic. *)
val floordivsi :
  Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value

val remsi : Ir.Builder.t -> Ir.Core.value -> Ir.Core.value -> Ir.Core.value

(** {2 Recognizers} *)

val is_constant : Ir.Core.op -> bool

(** Constant float value, if the op is a float [arith.constant]. *)
val constant_float_value : Ir.Core.op -> float option

val constant_int_value : Ir.Core.op -> int option

(** Names of binary float ops, e.g. for flop counting: ["arith.addf"; ...]. *)
val float_binops : string list
