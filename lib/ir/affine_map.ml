module E = Affine_expr

type t = { n_dims : int; n_syms : int; exprs : E.t list }

let check_ranges ~n_dims ~n_syms e =
  let rec go = function
    | E.Dim i ->
        if i < 0 || i >= n_dims then
          invalid_arg
            (Printf.sprintf "Affine_map: dim d%d out of range (n_dims=%d)" i
               n_dims)
    | E.Sym i ->
        if i < 0 || i >= n_syms then
          invalid_arg
            (Printf.sprintf "Affine_map: sym s%d out of range (n_syms=%d)" i
               n_syms)
    | E.Const _ -> ()
    | E.Add (a, b) | E.Mul (a, b) | E.Floor_div (a, b) | E.Mod (a, b) ->
        go a;
        go b
  in
  go e

(* Monomorphic, length-guarded structural equality (no exception-driven
   [for_all2], no polymorphic compare). [make] simplifies every result and
   [simplify] is idempotent, so the results compare syntactically. *)
let rec exprs_equal a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> E.structural_equal x y && exprs_equal xs ys
  | _ -> false

let equal a b =
  a == b
  || Int.equal a.n_dims b.n_dims
     && Int.equal a.n_syms b.n_syms
     && exprs_equal a.exprs b.exprs

let make ~n_dims ?(n_syms = 0) exprs =
  let exprs = List.map E.simplify exprs in
  List.iter (check_ranges ~n_dims ~n_syms) exprs;
  { n_dims; n_syms; exprs }

let identity n = make ~n_dims:n (List.init n E.dim)
let constant_map cs = make ~n_dims:0 (List.map E.const cs)

let permutation p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Affine_map.permutation: not a permutation";
      seen.(i) <- true)
    p;
  make ~n_dims:n (Array.to_list (Array.map E.dim p))

let n_results t = List.length t.exprs

let eval t ~dims ?(syms = [||]) () =
  if Array.length dims <> t.n_dims then
    invalid_arg "Affine_map.eval: wrong number of dims";
  if Array.length syms <> t.n_syms then
    invalid_arg "Affine_map.eval: wrong number of syms";
  Array.of_list (List.map (E.eval ~dims ~syms) t.exprs)

let inverse_permutation p =
  let n = Array.length p in
  let q = Array.make n (-1) in
  Array.iteri (fun i pi -> q.(pi) <- i) p;
  q

let minor_identity ~n_dims ~results = make ~n_dims (List.map E.dim results)

let add_to_buffer b t =
  let add_vars prefix n =
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b prefix;
      Buffer.add_string b (string_of_int i)
    done
  in
  Buffer.add_char b '(';
  add_vars "d" t.n_dims;
  Buffer.add_char b ')';
  if t.n_syms > 0 then begin
    Buffer.add_char b '[';
    add_vars "s" t.n_syms;
    Buffer.add_char b ']'
  end;
  Buffer.add_string b " -> (";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ", ";
      E.add_to_buffer b e)
    t.exprs;
  Buffer.add_char b ')'

let to_string t =
  let b = Buffer.create 64 in
  add_to_buffer b t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
