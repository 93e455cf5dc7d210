open Ir
module D = Support.Diag

let float_binops = [ "arith.addf"; "arith.subf"; "arith.mulf"; "arith.divf" ]

let int_binops =
  [ "arith.addi"; "arith.subi"; "arith.muli"; "arith.floordivsi"; "arith.remsi" ]

let verify_binop ~want_float (op : Core.op) =
  if Core.num_operands op <> 2 || Core.num_results op <> 1 then
    D.errorf "%s: expects 2 operands and 1 result" op.o_name;
  let t = (Core.result op 0).v_typ in
  let ok = if want_float then Typ.is_float t else Typ.is_int t in
  if not ok then D.errorf "%s: bad result type %s" op.o_name (Typ.to_string t);
  Array.iter
    (fun (v : Core.value) ->
      if not (Typ.equal v.v_typ t) then
        D.errorf "%s: operand/result type mismatch" op.o_name)
    op.o_operands

let verify_constant (op : Core.op) =
  if Core.num_operands op <> 0 || Core.num_results op <> 1 then
    D.errorf "arith.constant: expects no operands and 1 result";
  match (Core.find_attr op "value", (Core.result op 0).v_typ) with
  | Some (Attr.Float _), t when Typ.is_float t -> ()
  | Some (Attr.Int _), t when Typ.is_int t -> ()
  | _ -> D.errorf "arith.constant: value attribute does not match type"

let () =
  Dialect.register_all
    ((Dialect.def ~verify:verify_constant ~summary:"scalar constant"
        "arith.constant"
     :: List.map
          (Dialect.def ~verify:(verify_binop ~want_float:true)
             ~summary:"float binary op")
          float_binops)
    @ List.map
        (Dialect.def ~verify:(verify_binop ~want_float:false)
           ~summary:"integer binary op")
        int_binops)

let constant_float b ?(typ = Typ.F32) f =
  let op =
    Builder.build b ~result_types:[ typ ]
      ~attrs:[ ("value", Attr.Float f) ]
      "arith.constant"
  in
  Core.result op 0

let constant_int b ?(typ = Typ.I64) i =
  let op =
    Builder.build b ~result_types:[ typ ]
      ~attrs:[ ("value", Attr.Int i) ]
      "arith.constant"
  in
  Core.result op 0

let constant_index b i = constant_int b ~typ:Typ.Index i

let binop name b (x : Core.value) (y : Core.value) =
  let op =
    Builder.build b ~operands:[ x; y ] ~result_types:[ x.v_typ ] name
  in
  Core.result op 0

let addf b = binop "arith.addf" b
let subf b = binop "arith.subf" b
let mulf b = binop "arith.mulf" b
let divf b = binop "arith.divf" b
let addi b = binop "arith.addi" b
let subi b = binop "arith.subi" b
let muli b = binop "arith.muli" b
let floordivsi b = binop "arith.floordivsi" b
let remsi b = binop "arith.remsi" b

let is_constant (op : Core.op) = String.equal op.o_name "arith.constant"

let constant_float_value (op : Core.op) =
  if is_constant op then
    match Core.find_attr op "value" with
    | Some (Attr.Float f) -> Some f
    | _ -> None
  else None

let constant_int_value (op : Core.op) =
  if is_constant op then
    match Core.find_attr op "value" with
    | Some (Attr.Int i) -> Some i
    | _ -> None
  else None
