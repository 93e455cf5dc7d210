open Ir
module A = Affine.Affine_ops
module E = Affine_expr

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The range of an operand value used as a map dimension: [0, extent) for
   constant-bound unit-step loop induction variables, unknown otherwise. *)
let extent_of (v : Core.value) =
  match v.Core.v_def with
  | Core.Def_block_arg (block, 0) -> (
      match Core.block_parent_op block with
      | Some loop when A.is_for loop && A.for_step loop = 1 -> (
          match A.for_const_bounds loop with
          | Some (0, ub) -> Some ub
          | _ -> None)
      | _ -> None)
  | _ -> None

type linear_access = {
  la_op : Core.op;
  la_terms : (Core.value * int * int) list;  (** (iv, coeff, extent) *)
  la_const : int;
}

let linear_access_of op =
  let map = A.access_map op in
  let operands = Array.of_list (A.access_indices op) in
  match map.Affine_map.exprs with
  | [ e ] -> (
      match E.linearize e with
      | Some { E.dim_coeffs; sym_coeffs = []; constant } -> (
          let terms =
            List.filter_map
              (fun (d, k) ->
                if k <= 0 then None
                else
                  match extent_of operands.(d) with
                  | Some ext -> Some (operands.(d), k, ext)
                  | None -> None)
              dim_coeffs
          in
          if List.length terms = List.length dim_coeffs && constant >= 0 then
            Some { la_op = op; la_terms = terms; la_const = constant }
          else None)
      | _ -> None)
  | _ -> None

(* Split an access by stride [s]: Some (high terms, low terms) with the
   low part provably in [0, s). *)
let split_by s la =
  let high, low = List.partition (fun (_, k, _) -> k mod s = 0) la.la_terms in
  let low_max =
    List.fold_left (fun acc (_, k, ext) -> acc + (k * (ext - 1))) la.la_const
      low
  in
  if low_max < s then Some (high, low) else None

let rewrite_access s la =
  let op = la.la_op in
  let operands = Array.of_list (A.access_indices op) in
  let dim_of (v : Core.value) =
    let rec find i =
      if i >= Array.length operands then assert false
      else if Core.value_equal operands.(i) v then i
      else find (i + 1)
    in
    find 0
  in
  match split_by s la with
  | None -> assert false
  | Some (high, low) ->
      let sum terms const =
        List.fold_left
          (fun acc (v, k, _) -> E.add acc (E.mul (E.const k) (E.dim (dim_of v))))
          (E.const const) terms
      in
      let high_expr =
        sum (List.map (fun (v, k, e) -> (v, k / s, e)) high) 0
      in
      let low_expr = sum low la.la_const in
      let map =
        Affine_map.make ~n_dims:(Array.length operands)
          [ high_expr; low_expr ]
      in
      Core.set_attr op "map" (Attr.Map map)

let try_delinearize func (buf : Core.value) =
  match buf.Core.v_typ with
  | Typ.Mem_ref ([ Typ.Static size ], elem) -> (
      let accesses =
        let acc = ref [] in
        Core.walk func (fun op ->
            if
              (A.is_load op || A.is_store op)
              && Core.value_equal (A.access_memref op) buf
            then acc := op :: !acc);
        List.rev !acc
      in
      if accesses = [] then false
      else
        match
          List.fold_left
            (fun acc op ->
              match (acc, linear_access_of op) with
              | Some las, Some la -> Some (la :: las)
              | _ -> None)
            (Some []) accesses
        with
        | None -> false
        | Some las ->
            (* Candidate stride: gcd of all coefficients > 1. *)
            let coeffs =
              List.concat_map
                (fun la ->
                  List.filter_map
                    (fun (_, k, _) -> if k > 1 then Some k else None)
                    la.la_terms)
                las
            in
            (match coeffs with
            | [] -> false
            | c :: rest ->
                let s = List.fold_left gcd c rest in
                s > 1 && size mod s = 0
                && List.for_all (fun la -> split_by s la <> None) las
                && begin
                     (* High part must stay within size/s. *)
                     List.for_all
                       (fun la ->
                         match split_by s la with
                         | Some (high, _) ->
                             let high_max =
                               List.fold_left
                                 (fun acc (_, k, ext) ->
                                   acc + (k / s * (ext - 1)))
                                 0 high
                             in
                             high_max < size / s
                         | None -> false)
                       las
                   end
                && begin
                     buf.Core.v_typ <- Typ.memref [ size / s; s ] elem;
                     List.iter (rewrite_access s) las;
                     true
                   end))
  | _ -> false

let refresh_signature func =
  if Core.is_func func then begin
    let args = Core.func_args func in
    Core.set_attr func "function_type"
      (Attr.Type (Typ.Fun (List.map (fun (v : Core.value) -> v.Core.v_typ) args, [])))
  end

let run func =
  let buffers =
    Core.func_args func
    @ (let acc = ref [] in
       Core.walk func (fun op ->
           if Std_dialect.Memref_ops.is_alloc op then
             acc := Core.result op 0 :: !acc);
       List.rev !acc)
  in
  let n =
    List.fold_left
      (fun n buf -> if try_delinearize func buf then n + 1 else n)
      0 buffers
  in
  if n > 0 then refresh_signature func;
  n
