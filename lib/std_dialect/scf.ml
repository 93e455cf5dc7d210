open Ir
module D = Support.Diag

let verify_for (op : Core.op) =
  if Core.num_operands op <> 3 then D.errorf "scf.for: expects 3 operands";
  Array.iter
    (fun (v : Core.value) ->
      if not (Typ.equal v.v_typ Typ.Index) then
        D.errorf "scf.for: bounds and step must be index values")
    op.o_operands;
  let body = Core.single_block op 0 in
  if Array.length body.b_args <> 1 then
    D.errorf "scf.for: body must have exactly the induction variable";
  match List.rev (Core.ops_of_block body) with
  | last :: _ when String.equal last.o_name "scf.yield" -> ()
  | _ -> D.errorf "scf.for: body must end with scf.yield"

let () =
  Dialect.register_all
    [
      Dialect.def ~verify:verify_for ~summary:"counted loop" "scf.for";
      Dialect.def ~terminator:true ~summary:"loop terminator" "scf.yield";
    ]

let for_ b ?(hint = "i") ~lb ~ub ~step body =
  let block = Core.create_block ~hints:[ hint ] [ Typ.Index ] in
  let region = Core.create_region [ block ] in
  let op =
    Builder.build b ~operands:[ lb; ub; step ] ~regions:[ region ] "scf.for"
  in
  let body_builder = Builder.at_end block in
  body body_builder block.b_args.(0);
  ignore (Builder.build body_builder "scf.yield");
  op

let is_for (op : Core.op) = String.equal op.o_name "scf.for"

let for_iv op =
  if not (is_for op) then invalid_arg "Scf.for_iv: not an scf.for";
  (Core.single_block op 0).b_args.(0)

let for_body op =
  if not (is_for op) then invalid_arg "Scf.for_body: not an scf.for";
  Core.single_block op 0
