open Ir
module D = Support.Diag

type bound = Affine_map.t * Core.value list

let verify_for (op : Core.op) =
  let lb = Attr.get_map (Core.attr op "lower_bound") in
  let ub = Attr.get_map (Core.attr op "upper_bound") in
  let step = Attr.get_int (Core.attr op "step") in
  if step <= 0 then D.errorf "affine.for: step must be positive";
  if Affine_map.n_results lb < 1 || Affine_map.n_results ub < 1 then
    D.errorf "affine.for: bound maps need at least one result";
  if Core.num_operands op <> lb.Affine_map.n_dims + ub.Affine_map.n_dims then
    D.errorf "affine.for: operand count does not match bound maps";
  let body = Core.single_block op 0 in
  if Array.length body.b_args <> 1
     || not (Typ.equal body.b_args.(0).v_typ Typ.Index)
  then D.errorf "affine.for: body must carry a single index argument";
  match List.rev (Core.ops_of_block body) with
  | last :: _ when String.equal last.o_name "affine.yield" -> ()
  | _ -> D.errorf "affine.for: body must end with affine.yield"

let verify_access ~is_store (op : Core.op) =
  let base = if is_store then 1 else 0 in
  if Core.num_operands op < base + 1 then
    D.errorf "%s: missing memref operand" op.o_name;
  let memref = Core.operand op base in
  let map = Attr.get_map (Core.attr op "map") in
  (match memref.v_typ with
  | Typ.Mem_ref (shape, elem) ->
      if Affine_map.n_results map <> List.length shape then
        D.errorf "%s: access map arity does not match memref rank" op.o_name;
      let scalar =
        if is_store then (Core.operand op 0).v_typ
        else (Core.result op 0).v_typ
      in
      if not (Typ.equal scalar elem) then
        D.errorf "%s: element type mismatch" op.o_name
  | t ->
      D.errorf "%s: expected a memref operand, got %s" op.o_name
        (Typ.to_string t));
  if
    Core.num_operands op - base - 1 <> map.Affine_map.n_dims
  then D.errorf "%s: index operand count does not match access map" op.o_name

let () =
  Dialect.register_all
    [
      Dialect.def ~verify:verify_for ~summary:"affine counted loop"
        "affine.for";
      Dialect.def ~terminator:true ~summary:"affine loop terminator"
        "affine.yield";
      Dialect.def
        ~verify:(verify_access ~is_store:false)
        ~summary:"affine buffer load" "affine.load";
      Dialect.def
        ~verify:(verify_access ~is_store:true)
        ~summary:"affine buffer store" "affine.store";
      Dialect.def ~summary:"apply an affine map" "affine.apply";
      Dialect.def ~verify:Structured.verify
        ~summary:"high-level matmul at the affine level (Bondhugula 2020)"
        "affine.matmul";
    ]

let for_ b ?(hint = "i") ~lb:(lb_map, lb_args) ~ub:(ub_map, ub_args)
    ?(step = 1) body =
  if List.length lb_args <> lb_map.Affine_map.n_dims then
    D.errorf "affine.for: lower bound operands do not match map";
  if List.length ub_args <> ub_map.Affine_map.n_dims then
    D.errorf "affine.for: upper bound operands do not match map";
  let block = Core.create_block ~hints:[ hint ] [ Typ.Index ] in
  let region = Core.create_region [ block ] in
  let op =
    Builder.build b
      ~operands:(lb_args @ ub_args)
      ~attrs:
        [
          ("lower_bound", Attr.Map lb_map);
          ("upper_bound", Attr.Map ub_map);
          ("step", Attr.Int step);
        ]
      ~regions:[ region ] "affine.for"
  in
  let body_builder = Builder.at_end block in
  body body_builder block.b_args.(0);
  ignore (Builder.build body_builder "affine.yield");
  op

let const_bound c = (Affine_map.constant_map [ c ], [])

let for_const b ?hint ~lb ~ub ?step body =
  for_ b ?hint ~lb:(const_bound lb) ~ub:(const_bound ub) ?step body

let is_for (op : Core.op) = String.equal op.o_name "affine.for"

let for_iv op =
  if not (is_for op) then invalid_arg "Affine_ops.for_iv";
  (Core.single_block op 0).b_args.(0)

let for_body op =
  if not (is_for op) then invalid_arg "Affine_ops.for_body";
  Core.single_block op 0

let for_lb op : bound =
  let map = Attr.get_map (Core.attr op "lower_bound") in
  let args =
    Array.to_list (Array.sub op.Core.o_operands 0 map.Affine_map.n_dims)
  in
  (map, args)

let for_ub op : bound =
  let lb_map = Attr.get_map (Core.attr op "lower_bound") in
  let map = Attr.get_map (Core.attr op "upper_bound") in
  let args =
    Array.to_list
      (Array.sub op.Core.o_operands lb_map.Affine_map.n_dims
         map.Affine_map.n_dims)
  in
  (map, args)

let for_step op = Attr.get_int (Core.attr op "step")

let single_const ((map, args) : bound) =
  match (map.Affine_map.exprs, args) with
  | [ e ], [] -> Affine_expr.is_constant e
  | _ -> None

let for_const_bounds op =
  match (single_const (for_lb op), single_const (for_ub op)) with
  | Some lb, Some ub -> Some (lb, ub)
  | _ -> None

let for_normalized op =
  for_step op = 1
  && match for_const_bounds op with Some (0, _) -> true | _ -> false

let for_trip_count op =
  match for_const_bounds op with
  | Some (lb, ub) ->
      let step = for_step op in
      Some (max 0 ((ub - lb + step - 1) / step))
  | None -> None

let load b memref (map, indices) =
  let elem = Typ.memref_elem memref.Core.v_typ in
  let op =
    Builder.build b
      ~operands:(memref :: indices)
      ~result_types:[ elem ]
      ~attrs:[ ("map", Attr.Map map) ]
      "affine.load"
  in
  Core.result op 0

let load_simple b memref ivs =
  load b memref (Affine_map.identity (List.length ivs), ivs)

let store b value memref (map, indices) =
  Builder.build b
    ~operands:(value :: memref :: indices)
    ~attrs:[ ("map", Attr.Map map) ]
    "affine.store"

let store_simple b value memref ivs =
  store b value memref (Affine_map.identity (List.length ivs), ivs)

let is_load (op : Core.op) = String.equal op.o_name "affine.load"
let is_store (op : Core.op) = String.equal op.o_name "affine.store"

let access_memref (op : Core.op) =
  if is_load op then Core.operand op 0
  else if is_store op then Core.operand op 1
  else invalid_arg "Affine_ops.access_memref: not an affine access"

let access_map (op : Core.op) = Attr.get_map (Core.attr op "map")

let access_indices (op : Core.op) =
  let base =
    if is_load op then 1
    else if is_store op then 2
    else invalid_arg "Affine_ops.access_indices: not an affine access"
  in
  Array.to_list
    (Array.sub op.o_operands base (Array.length op.o_operands - base))

let stored_value (op : Core.op) =
  if not (is_store op) then invalid_arg "Affine_ops.stored_value";
  Core.operand op 0

let apply b map operands =
  if Affine_map.n_results map <> 1 then
    D.errorf "affine.apply: map must have exactly one result";
  let op =
    Builder.build b ~operands ~result_types:[ Typ.Index ]
      ~attrs:[ ("map", Attr.Map map) ]
      "affine.apply"
  in
  Core.result op 0

let matmul b a bm c =
  Builder.build b ~operands:[ a; bm; c ] "affine.matmul"

let is_matmul (op : Core.op) = String.equal op.o_name "affine.matmul"
