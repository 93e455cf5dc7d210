open Ir
module A = Affine.Affine_ops
module Arith = Std_dialect.Arith
module Memref = Std_dialect.Memref_ops
module Scf = Std_dialect.Scf
module D = Support.Diag

(* Expand an affine expression over SSA index operands into arith ops. *)
let rec expand b (operands : Core.value array) (e : Affine_expr.t) =
  match e with
  | Affine_expr.Dim i -> operands.(i)
  | Affine_expr.Sym _ -> D.errorf "lower-affine: symbols unsupported"
  | Affine_expr.Const c -> Arith.constant_index b c
  | Affine_expr.Add (x, y) ->
      Arith.addi b (expand b operands x) (expand b operands y)
  | Affine_expr.Mul (x, y) ->
      Arith.muli b (expand b operands x) (expand b operands y)
  | Affine_expr.Floor_div (x, y) ->
      Arith.floordivsi b (expand b operands x) (expand b operands y)
  | Affine_expr.Mod (x, y) ->
      Arith.remsi b (expand b operands x) (expand b operands y)

let single_bound_value b (op : Core.op) ((map, args) : A.bound) =
  match map.Affine_map.exprs with
  | [ e ] -> expand b (Array.of_list args) e
  | _ ->
      D.errorf ~loc:(Core.nearest_loc op)
        "lower-affine: min/max loop bounds not supported at the SCF level"

let lower_for (ctx : Rewriter.ctx) (op : Core.op) =
  let b = ctx.builder in
  let lb = single_bound_value b op (A.for_lb op) in
  let ub = single_bound_value b op (A.for_ub op) in
  let step = Arith.constant_index b (A.for_step op) in
  let old_body = A.for_body op in
  let old_iv = A.for_iv op in
  ignore
    (Scf.for_ b ~hint:(Option.value ~default:"i" old_iv.Core.v_hint) ~lb ~ub
       ~step (fun b iv ->
         List.iter
           (fun child ->
             Core.detach_op child;
             ignore (Builder.insert b child);
             Core.replace_uses child ~old_v:old_iv ~new_v:iv)
           (List.filter
              (fun (o : Core.op) ->
                not (String.equal o.o_name "affine.yield"))
              (Core.ops_of_block old_body))));
  Core.erase_op op;
  true

let lower_access (ctx : Rewriter.ctx) (op : Core.op) =
  let b = ctx.builder in
  let expand_indices () =
    let map = A.access_map op in
    let operands = Array.of_list (A.access_indices op) in
    List.map (expand b operands) map.Affine_map.exprs
  in
  if A.is_load op then begin
    let v = Memref.load b (A.access_memref op) (expand_indices ()) in
    Rewriter.replace_op_local ctx op [ v ];
    true
  end
  else if A.is_store op then begin
    ignore
      (Memref.store b (A.stored_value op) (A.access_memref op)
         (expand_indices ()));
    Core.erase_op op;
    true
  end
  else false

let lower_apply (ctx : Rewriter.ctx) (op : Core.op) =
  if String.equal op.Core.o_name "affine.apply" then begin
    let map = Attr.get_map (Core.attr op "map") in
    let v =
      expand ctx.builder op.o_operands (List.hd map.Affine_map.exprs)
    in
    Rewriter.replace_op_local ctx op [ v ];
    true
  end
  else false

let patterns () =
  [
    Rewriter.pattern ~name:"affine-for-to-scf"
      ~roots:(Rewriter.Roots [ "affine.for" ])
      (fun ctx op -> if A.is_for op then lower_for ctx op else false);
    Rewriter.pattern ~name:"affine-access-to-memref"
      ~roots:(Rewriter.Roots [ "affine.load"; "affine.store" ])
      (fun ctx op ->
        if A.is_load op || A.is_store op then lower_access ctx op else false);
    Rewriter.pattern ~name:"affine-apply-to-arith"
      ~roots:(Rewriter.Roots [ "affine.apply" ])
      lower_apply;
  ]

let frozen = Rewriter.freeze (patterns ())
let run root = ignore (Rewriter.apply_sweeps root frozen)
