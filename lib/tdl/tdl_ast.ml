type iexpr = { ix_terms : (string * int) list; ix_const : int }

let var v = { ix_terms = [ (v, 1) ]; ix_const = 0 }

let iexpr_to_string e =
  let parts =
    List.map
      (fun (v, k) -> if k = 1 then v else Printf.sprintf "%d*%s" k v)
      e.ix_terms
  in
  let parts =
    if e.ix_const = 0 && parts <> [] then parts
    else parts @ [ string_of_int e.ix_const ]
  in
  String.concat " + " parts

type ref_ = { tensor : string; indices : iexpr list }

type assign = Assign | Accumulate

type rhs = R_ref of ref_ | R_mul of ref_ * ref_

type stmt = {
  lhs : ref_;
  op : assign;
  rhs : rhs;
  where : (string * string list) option;
}

type tactic = {
  t_name : string;
  t_pattern : stmt;
  t_builder : stmt list;
  t_loc : Support.Loc.t;
}

let simple_indices r =
  List.fold_right
    (fun e acc ->
      match (e.ix_terms, e.ix_const, acc) with
      | [ (v, 1) ], 0, Some tl -> Some (v :: tl)
      | _ -> None)
    r.indices (Some [])

let ref_vars r =
  List.concat_map (fun e -> List.map fst e.ix_terms) r.indices

let stmt_vars s =
  let rhs_vars =
    match s.rhs with
    | R_ref r -> ref_vars r
    | R_mul (a, b) -> ref_vars a @ ref_vars b
  in
  List.fold_left
    (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
    [] (ref_vars s.lhs @ rhs_vars)

let pp_ref fmt r =
  Format.fprintf fmt "%s(%s)" r.tensor
    (String.concat ", " (List.map iexpr_to_string r.indices))

let pp_stmt fmt s =
  let op = match s.op with Assign -> "=" | Accumulate -> "+=" in
  Format.fprintf fmt "%a %s " pp_ref s.lhs op;
  (match s.rhs with
  | R_ref r -> pp_ref fmt r
  | R_mul (a, b) -> Format.fprintf fmt "%a * %a" pp_ref a pp_ref b);
  match s.where with
  | Some (f, group) ->
      Format.fprintf fmt " where %s = %s" f (String.concat " * " group)
  | None -> ()

let stmt_to_string s = Format.asprintf "%a" pp_stmt s
