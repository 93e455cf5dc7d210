open Ir
module D = Support.Diag

let verify_alloc (op : Core.op) =
  if Core.num_results op <> 1 then D.errorf "memref.alloc: expects 1 result";
  match (Core.result op 0).v_typ with
  | Typ.Mem_ref _ -> ()
  | t -> D.errorf "memref.alloc: result must be a memref, got %s"
           (Typ.to_string t)

let verify_dealloc (op : Core.op) =
  if Core.num_operands op <> 1 || Core.num_results op <> 0 then
    D.errorf "memref.dealloc: expects 1 operand and no results"

let verify_access ~is_store (op : Core.op) =
  let base = if is_store then 1 else 0 in
  if Core.num_operands op < base + 1 then
    D.errorf "%s: missing memref operand" op.o_name;
  match (Core.operand op base).v_typ with
  | Typ.Mem_ref (shape, _) ->
      if Core.num_operands op - base - 1 <> List.length shape then
        D.errorf "%s: index count does not match memref rank" op.o_name
  | t ->
      D.errorf "%s: expected a memref operand, got %s" op.o_name
        (Typ.to_string t)

let () =
  Dialect.register_all
    [
      Dialect.def ~verify:verify_alloc ~summary:"allocate a buffer"
        "memref.alloc";
      Dialect.def ~verify:verify_dealloc ~summary:"free a buffer"
        "memref.dealloc";
      Dialect.def
        ~verify:(verify_access ~is_store:false)
        ~summary:"indexed load" "memref.load";
      Dialect.def
        ~verify:(verify_access ~is_store:true)
        ~summary:"indexed store" "memref.store";
    ]

let alloc b ?hint typ =
  (match Typ.static_shape typ with
  | Some _ -> ()
  | None ->
      D.errorf "memref.alloc: type %s is not a static memref"
        (Typ.to_string typ));
  let op = Builder.build b ~result_types:[ typ ] "memref.alloc" in
  let v = Core.result op 0 in
  v.v_hint <- hint;
  v

let dealloc b v =
  ignore (Builder.build b ~operands:[ v ] "memref.dealloc")

let is_alloc (op : Core.op) = String.equal op.o_name "memref.alloc"

let load b memref indices =
  let elem = Typ.memref_elem memref.Core.v_typ in
  let op =
    Builder.build b
      ~operands:(memref :: indices)
      ~result_types:[ elem ] "memref.load"
  in
  Core.result op 0

let store b value memref indices =
  Builder.build b ~operands:(value :: memref :: indices) "memref.store"
