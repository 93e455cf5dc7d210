open C_ast
open Ir
module D = Support.Diag
module A = Affine.Affine_ops
module Arith = Std_dialect.Arith

type env = {
  arrays : (string, Core.value) Hashtbl.t;
  loop_vars : (string, Core.value) Hashtbl.t;
}

let decl_type (d : decl) = Typ.memref d.d_dims Typ.F32

(* Convert subscripts to an affine map over the loop variables they
   mention (in order of first appearance) plus the iv operands. *)
let ref_access env (r : ref_) =
  let vars = List.concat_map index_vars r.subscripts in
  let ordered =
    List.fold_left
      (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
      [] vars
  in
  let dim_of v =
    match List.mapi (fun i x -> (x, i)) ordered |> List.assoc_opt v with
    | Some i -> i
    | None -> assert false
  in
  let conv = affine_of_index (fun v -> Affine_expr.dim (dim_of v)) in
  let exprs =
    List.map
      (fun idx ->
        let e = conv idx in
        match Affine_expr.linearize e with
        | Some _ -> Affine_expr.simplify e
        | None ->
            D.errorf "non-affine subscript in access to %S: %s" r.array
              (Affine_expr.to_string e))
      r.subscripts
  in
  let map = Affine_map.make ~n_dims:(List.length ordered) exprs in
  let operands =
    List.map
      (fun v ->
        match Hashtbl.find_opt env.loop_vars v with
        | Some iv -> iv
        | None -> D.errorf "subscript variable %S is not a loop variable" v)
      ordered
  in
  (map, operands)

let lookup_array env name =
  match Hashtbl.find_opt env.arrays name with
  | Some v -> v
  | None -> D.errorf "array %S is not declared" name

let check_rank env (r : ref_) =
  let v = lookup_array env r.array in
  let rank = Typ.memref_rank v.Core.v_typ in
  if rank <> List.length r.subscripts then
    D.errorf "access to %S has %d subscripts but the array has rank %d"
      r.array
      (List.length r.subscripts)
      rank

let rec emit_expr env b = function
  | E_lit f -> Arith.constant_float b f
  | E_ref r ->
      check_rank env r;
      A.load b (lookup_array env r.array) (ref_access env r)
  | E_add (x, y) -> emit_bin env b Arith.addf x y
  | E_sub (x, y) -> emit_bin env b Arith.subf x y
  | E_mul (x, y) -> emit_bin env b Arith.mulf x y
  | E_div (x, y) -> emit_bin env b Arith.divf x y

and emit_bin env b f x y =
  let xv = emit_expr env b x in
  let yv = emit_expr env b y in
  f b xv yv

(* Each statement's emission runs under [Core.with_loc], so every op a
   statement expands to — including ops built inside dialect helpers —
   carries that statement's C source location. *)
let rec emit_stmt env b = function
  | S_assign { lhs; rhs; loc } ->
      Core.with_loc loc @@ fun () ->
      (try check_rank env lhs
       with D.Error (_, msg) -> D.error ~loc msg);
      let value = emit_expr env b rhs in
      ignore (A.store b value (lookup_array env lhs.array) (ref_access env lhs))
  | S_for { var; lb; ub; body; loc } ->
      if Hashtbl.mem env.loop_vars var then
        D.errorf ~loc "loop variable %S shadows an enclosing loop" var;
      ignore
        (Core.with_loc loc @@ fun () ->
         A.for_const b ~hint:var ~lb ~ub (fun b iv ->
             Hashtbl.replace env.loop_vars var iv;
             List.iter (emit_stmt env b) body;
             Hashtbl.remove env.loop_vars var))

let kernel (k : C_ast.kernel) =
  List.iter
    (fun (d : decl) ->
      if List.exists (fun n -> n <= 0) d.d_dims then
        D.errorf "array %S has a non-positive dimension" d.d_name)
    (k.k_params @ k.k_locals);
  let f =
    Core.create_func ~name:k.k_name
      ~arg_types:(List.map decl_type k.k_params)
      ~arg_hints:(List.map (fun d -> d.d_name) k.k_params)
      ()
  in
  let env =
    { arrays = Hashtbl.create 16; loop_vars = Hashtbl.create 16 }
  in
  List.iter2
    (fun (d : decl) v ->
      if Hashtbl.mem env.arrays d.d_name then
        D.errorf "duplicate declaration of %S" d.d_name;
      Hashtbl.replace env.arrays d.d_name v)
    k.k_params (Core.func_args f);
  let b = Builder.at_end (Core.func_entry f) in
  List.iter
    (fun (d : decl) ->
      if Hashtbl.mem env.arrays d.d_name then
        D.errorf "duplicate declaration of %S" d.d_name;
      let v = Std_dialect.Memref_ops.alloc b ~hint:d.d_name (decl_type d) in
      Hashtbl.replace env.arrays d.d_name v)
    k.k_locals;
  List.iter (emit_stmt env b) k.k_body;
  ignore (Builder.build b "func.return");
  f

let program ?(distribute = true) ks =
  let ks = if distribute then List.map Distribute.kernel ks else ks in
  let m = Core.create_module () in
  List.iter (fun k -> Core.append_op (Core.module_block m) (kernel k)) ks;
  m

let translate ?distribute ?file src =
  let ks = C_parser.parse_program ?file src in
  let m = program ?distribute ks in
  Verifier.verify m;
  m
