open Ir
module A = Affine.Affine_ops
module Arith = Std_dialect.Arith
module E = Affine_expr

let const_int_of (v : Core.value) =
  match Core.defining_op v with
  | Some op -> Arith.constant_int_value op
  | None -> None

(* Rebuild an affine expression from arith index computations, collecting
   non-reconstructible leaves (induction variables, unknown index values)
   as map operands. *)
let rec expr_of operands (v : Core.value) =
  let dim_of () =
    let rec find i = function
      | [] ->
          operands := !operands @ [ v ];
          i
      | v' :: _ when Core.value_equal v v' -> i
      | _ :: rest -> find (i + 1) rest
    in
    E.dim (find 0 !operands)
  in
  match Core.defining_op v with
  | None -> dim_of ()
  | Some op -> (
      match op.Core.o_name with
      | "arith.constant" -> (
          match Arith.constant_int_value op with
          | Some i -> E.const i
          | None -> dim_of ())
      | "arith.addi" ->
          E.Add (expr_of operands (Core.operand op 0),
                 expr_of operands (Core.operand op 1))
      | "arith.subi" ->
          E.Add
            ( expr_of operands (Core.operand op 0),
              E.Mul (E.Const (-1), expr_of operands (Core.operand op 1)) )
      | "arith.muli" ->
          E.Mul (expr_of operands (Core.operand op 0),
                 expr_of operands (Core.operand op 1))
      | "arith.floordivsi" ->
          E.Floor_div (expr_of operands (Core.operand op 0),
                       expr_of operands (Core.operand op 1))
      | "arith.remsi" ->
          E.Mod (expr_of operands (Core.operand op 0),
                 expr_of operands (Core.operand op 1))
      | _ -> dim_of ())

let rec is_affine e =
  let is_const e = match E.is_constant e with Some _ -> true | None -> false in
  match e with
  | E.Dim _ | E.Sym _ | E.Const _ -> true
  | E.Add (a, b) -> is_affine a && is_affine b
  | E.Mul (a, b) -> is_affine a && is_affine b && (is_const a || is_const b)
  | E.Floor_div (a, b) | E.Mod (a, b) -> is_affine a && is_const b

let raise_for (ctx : Rewriter.ctx) (op : Core.op) =
  match
    ( const_int_of (Core.operand op 0),
      const_int_of (Core.operand op 1),
      const_int_of (Core.operand op 2) )
  with
  | Some lb, Some ub, Some step when step > 0 ->
      let old_iv = Std_dialect.Scf.for_iv op in
      let old_body = Std_dialect.Scf.for_body op in
      ignore
        (A.for_ ctx.Rewriter.builder
           ~hint:(Option.value ~default:"i" old_iv.Core.v_hint)
           ~lb:(Affine_map.constant_map [ lb ], [])
           ~ub:(Affine_map.constant_map [ ub ], [])
           ~step
           (fun b iv ->
             List.iter
               (fun (child : Core.op) ->
                 if not (String.equal child.o_name "scf.yield") then begin
                   Core.detach_op child;
                   ignore (Builder.insert b child);
                   Core.replace_uses child ~old_v:old_iv ~new_v:iv
                 end)
               (Core.ops_of_block old_body)));
      Core.erase_op op;
      true
  | _ -> false

let raise_access (ctx : Rewriter.ctx) (op : Core.op) =
  let is_load = String.equal op.Core.o_name "memref.load" in
  let base = if is_load then 0 else 1 in
  let memref = Core.operand op base in
  let indices =
    Array.to_list
      (Array.sub op.Core.o_operands (base + 1)
         (Array.length op.Core.o_operands - base - 1))
  in
  let operands = ref [] in
  let exprs = List.map (fun v -> E.simplify (expr_of operands v)) indices in
  if not (List.for_all is_affine exprs) then false
  else begin
    let map = Affine_map.make ~n_dims:(List.length !operands) exprs in
    let b = ctx.Rewriter.builder in
    if is_load then begin
      let v = A.load b memref (map, !operands) in
      Rewriter.replace_op_local ctx op [ v ];
      true
    end
    else begin
      ignore (A.store b (Core.operand op 0) memref (map, !operands));
      Core.erase_op op;
      true
    end
  end

let patterns () =
  [
    Rewriter.pattern ~name:"raise-scf-for"
      ~roots:(Rewriter.Roots [ "scf.for" ])
        (* The scf.for verifier pins the shape: (lb, ub, step) + one body
           region. *)
      ~prefix:(Rewriter.prefix ~operands:3 ~regions:1 ())
      ~generated_ops:[ "affine.for" ]
      (fun ctx op ->
        if Std_dialect.Scf.is_for op then raise_for ctx op else false);
    Rewriter.pattern ~name:"raise-memref-access"
      ~roots:(Rewriter.Roots [ "memref.load"; "memref.store" ])
      ~generated_ops:[ "affine.load"; "affine.store" ]
      (fun ctx op ->
        if
          String.equal op.Core.o_name "memref.load"
          || String.equal op.Core.o_name "memref.store"
        then raise_access ctx op
        else false);
  ]

let frozen = Rewriter.freeze (patterns ())

let run root =
  let n = Rewriter.apply_sweeps root frozen in
  (* Bound constants and index arithmetic are now dead. *)
  ignore (Dce.run root);
  n
