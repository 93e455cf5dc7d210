type index =
  | I_var of string
  | I_const of int
  | I_add of index * index
  | I_sub of index * index
  | I_mul of index * index

type expr =
  | E_lit of float
  | E_ref of ref_
  | E_add of expr * expr
  | E_sub of expr * expr
  | E_mul of expr * expr
  | E_div of expr * expr

and ref_ = { array : string; subscripts : index list }

type stmt =
  | S_for of {
      var : string;
      lb : int;
      ub : int;
      body : stmt list;
      loc : Support.Loc.t;
    }
  | S_assign of { lhs : ref_; rhs : expr; loc : Support.Loc.t }

type decl = { d_name : string; d_dims : int list }

type kernel = {
  k_name : string;
  k_params : decl list;
  k_locals : decl list;
  k_body : stmt list;
}

type program = kernel list

let rec expr_reads = function
  | E_lit _ -> []
  | E_ref r -> [ r ]
  | E_add (a, b) | E_sub (a, b) | E_mul (a, b) | E_div (a, b) ->
      expr_reads a @ expr_reads b

let rec stmt_accesses = function
  | S_assign { lhs; rhs; _ } -> ([ lhs ], expr_reads rhs)
  | S_for { body; _ } ->
      List.fold_left
        (fun (w, r) s ->
          let w', r' = stmt_accesses s in
          (w @ w', r @ r'))
        ([], []) body

let rec index_vars = function
  | I_var v -> [ v ]
  | I_const _ -> []
  | I_add (a, b) | I_sub (a, b) | I_mul (a, b) ->
      index_vars a @ index_vars b

let rec affine_of_index var =
  let open Ir.Affine_expr in
  function
  | I_var v -> var v
  | I_const c -> const c
  | I_add (a, b) -> Add (affine_of_index var a, affine_of_index var b)
  | I_sub (a, b) -> Add (affine_of_index var a, Mul (Const (-1), affine_of_index var b))
  | I_mul (a, b) -> Mul (affine_of_index var a, affine_of_index var b)

let rec strip_locs_stmt = function
  | S_for f ->
      S_for
        {
          f with
          body = List.map strip_locs_stmt f.body;
          loc = Support.Loc.unknown;
        }
  | S_assign a -> S_assign { a with loc = Support.Loc.unknown }

let strip_locs k = { k with k_body = List.map strip_locs_stmt k.k_body }

let rec pp_index fmt = function
  | I_var v -> Format.fprintf fmt "%s" v
  | I_const c -> Format.fprintf fmt "%d" c
  | I_add (a, b) -> Format.fprintf fmt "(%a + %a)" pp_index a pp_index b
  | I_sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_index a pp_index b
  | I_mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp_index a pp_index b

let pp_ref fmt { array; subscripts } =
  Format.fprintf fmt "%s" array;
  List.iter (fun i -> Format.fprintf fmt "[%a]" pp_index i) subscripts

let rec pp_expr fmt = function
  | E_lit f -> Format.fprintf fmt "%g" f
  | E_ref r -> pp_ref fmt r
  | E_add (a, b) -> Format.fprintf fmt "(%a + %a)" pp_expr a pp_expr b
  | E_sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_expr a pp_expr b
  | E_mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp_expr a pp_expr b
  | E_div (a, b) -> Format.fprintf fmt "(%a / %a)" pp_expr a pp_expr b

let rec pp_stmt_in indent fmt stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | S_for { var; lb; ub; body; _ } ->
      Format.fprintf fmt "%sfor (int %s = %d; %s < %d; ++%s) {\n" pad var lb
        var ub var;
      List.iter (fun s -> pp_stmt_in (indent + 2) fmt s) body;
      Format.fprintf fmt "%s}\n" pad
  | S_assign { lhs; rhs; _ } ->
      Format.fprintf fmt "%s%a = %a;\n" pad pp_ref lhs pp_expr rhs

let pp_stmt fmt stmt = pp_stmt_in 0 fmt stmt

let pp_kernel fmt k =
  let pp_decl fmt d =
    Format.fprintf fmt "float %s" d.d_name;
    List.iter (fun n -> Format.fprintf fmt "[%d]" n) d.d_dims
  in
  Format.fprintf fmt "void %s(%a) {\n" k.k_name
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       pp_decl)
    k.k_params;
  List.iter (fun d -> Format.fprintf fmt "  %a;\n" pp_decl d) k.k_locals;
  List.iter (fun s -> pp_stmt_in 2 fmt s) k.k_body;
  Format.fprintf fmt "}\n"
