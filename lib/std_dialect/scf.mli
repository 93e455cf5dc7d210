(** The [scf] dialect subset: structured [for] loops over index values.

    The affine dialect lowers into [scf] during progressive lowering
    (Figure 2 of the paper); Multi-Level Tactics can also lift from SCF. *)

(** [for_ b ~lb ~ub ~step body] builds an [scf.for] whose bounds and step
    are SSA index values; [body] receives a builder positioned in the loop
    body and the induction variable. An [scf.yield] terminator is added. *)
val for_ :
  Ir.Builder.t ->
  ?hint:string ->
  lb:Ir.Core.value ->
  ub:Ir.Core.value ->
  step:Ir.Core.value ->
  (Ir.Builder.t -> Ir.Core.value -> unit) ->
  Ir.Core.op

val is_for : Ir.Core.op -> bool
val for_iv : Ir.Core.op -> Ir.Core.value
val for_body : Ir.Core.op -> Ir.Core.block
