open Ir
module Arith = Std_dialect.Arith

let const_val (v : Core.value) =
  match Core.defining_op v with
  | Some op -> Arith.constant_float_value op
  | None -> None

let fold_identities ~fast_math (ctx : Rewriter.ctx) (op : Core.op) =
  let replace_with v =
    Rewriter.replace_op ctx op [ v ];
    true
  in
  let x () = Core.operand op 0 and y () = Core.operand op 1 in
  match op.o_name with
  | "arith.mulf" -> (
      match (const_val (x ()), const_val (y ())) with
      | Some a, Some b ->
          let c = Arith.constant_float ctx.builder (a *. b) in
          replace_with c
      | Some 1.0, None -> replace_with (y ())
      | None, Some 1.0 -> replace_with (x ())
      (* x *. 0.0 -> 0.0 is wrong for NaN, +/-inf and -0.0 (NaN *. 0.0 is
         NaN, inf *. 0.0 is NaN, -1.0 *. 0.0 is -0.0), so it only fires
         under fast-math. Note the [0.0] literal pattern also matches
         [-0.0] (float patterns compare with [=]). The const*const arm
         above is exact and needs no gate. *)
      | (Some 0.0, None | None, Some 0.0) when fast_math ->
          replace_with (Arith.constant_float ctx.builder 0.0)
      | _ -> false)
  | "arith.addf" -> (
      match (const_val (x ()), const_val (y ())) with
      | Some a, Some b ->
          replace_with (Arith.constant_float ctx.builder (a +. b))
      | Some 0.0, None -> replace_with (y ())
      | None, Some 0.0 -> replace_with (x ())
      | _ -> false)
  | "arith.subf" -> (
      match (const_val (x ()), const_val (y ())) with
      | Some a, Some b ->
          replace_with (Arith.constant_float ctx.builder (a -. b))
      | None, Some 0.0 -> replace_with (x ())
      | _ -> false)
  | "arith.divf" -> (
      match const_val (y ()) with
      | Some 1.0 -> replace_with (x ())
      | _ -> false)
  | _ -> false

let patterns ?(fast_math = false) () =
  [
    Rewriter.pattern ~name:"fold-float-identities"
      ~roots:
        (Rewriter.Roots [ "arith.mulf"; "arith.addf"; "arith.subf"; "arith.divf" ])
        (* All four roots are binary, region-less ops; anything else
           (malformed IR aside, which [x ()]/[y ()] would reject anyway)
           is pruned before the apply function runs. *)
      ~prefix:(Rewriter.prefix ~operands:2 ~regions:0 ())
      (fold_identities ~fast_math);
  ]

let frozen = Rewriter.freeze (patterns ())
let frozen_fast_math = Rewriter.freeze (patterns ~fast_math:true ())

let run ?(fast_math = false) root =
  let fz = if fast_math then frozen_fast_math else frozen in
  let n = Rewriter.apply_greedily root fz in
  (* Folding orphans constants; sweep them. *)
  ignore (Dce.run root);
  n
