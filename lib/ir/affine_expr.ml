type t =
  | Dim of int
  | Sym of int
  | Const of int
  | Add of t * t
  | Mul of t * t
  | Floor_div of t * t
  | Mod of t * t

let dim i = Dim i
let sym i = Sym i
let const c = Const c

(* Floor-division semantics for any non-zero divisor: the result pair
   [(floordiv x y, floormod x y)] satisfies [x = y*q + r] with [r] in
   [[0, y)] for positive [y] and [(y, 0]] for negative [y]. OCaml's [/]
   and [mod] truncate toward zero, so both need a correction when the
   remainder is non-zero and the signs disagree. *)
let floordiv x y =
  if y = 0 then invalid_arg "Affine_expr.floordiv: division by zero"
  else
    let q = x / y and r = x mod y in
    if r <> 0 && r < 0 <> (y < 0) then q - 1 else q

let floormod x y =
  if y = 0 then invalid_arg "Affine_expr.floormod: modulo by zero"
  else
    let r = x mod y in
    if r <> 0 && r < 0 <> (y < 0) then r + y else r

type linear = {
  dim_coeffs : (int * int) list;
  sym_coeffs : (int * int) list;
  constant : int;
}

let lin_const c = { dim_coeffs = []; sym_coeffs = []; constant = c }

(* Merge two sorted coefficient lists, dropping zero coefficients. *)
let merge_coeffs a b =
  let rec go a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (ia, ca) :: ta, (ib, cb) :: tb ->
        if ia < ib then (ia, ca) :: go ta b
        else if ib < ia then (ib, cb) :: go a tb
        else
          let c = ca + cb in
          if c = 0 then go ta tb else (ia, c) :: go ta tb
  in
  go a b

let lin_add a b =
  {
    dim_coeffs = merge_coeffs a.dim_coeffs b.dim_coeffs;
    sym_coeffs = merge_coeffs a.sym_coeffs b.sym_coeffs;
    constant = a.constant + b.constant;
  }

let lin_scale k l =
  if k = 0 then lin_const 0
  else
    {
      dim_coeffs = List.map (fun (i, c) -> (i, k * c)) l.dim_coeffs;
      sym_coeffs = List.map (fun (i, c) -> (i, k * c)) l.sym_coeffs;
      constant = k * l.constant;
    }

let rec linearize = function
  | Dim i -> Some { dim_coeffs = [ (i, 1) ]; sym_coeffs = []; constant = 0 }
  | Sym i -> Some { dim_coeffs = []; sym_coeffs = [ (i, 1) ]; constant = 0 }
  | Const c -> Some (lin_const c)
  | Add (a, b) -> (
      match (linearize a, linearize b) with
      | Some la, Some lb -> Some (lin_add la lb)
      | _ -> None)
  | Mul (a, b) -> (
      match (linearize a, linearize b) with
      | Some la, Some lb -> (
          match (la, lb) with
          | { dim_coeffs = []; sym_coeffs = []; constant = k }, l
          | l, { dim_coeffs = []; sym_coeffs = []; constant = k } ->
              Some (lin_scale k l)
          | _ -> None)
      | _ -> None)
  | Floor_div _ | Mod _ -> None

let of_linear l =
  let term acc mk (i, c) =
    let t = if c = 1 then mk i else Mul (Const c, mk i) in
    match acc with None -> Some t | Some a -> Some (Add (a, t))
  in
  let acc = List.fold_left (fun a dc -> term a dim dc) None l.dim_coeffs in
  let acc = List.fold_left (fun a sc -> term a sym sc) acc l.sym_coeffs in
  match (acc, l.constant) with
  | None, c -> Const c
  | Some a, 0 -> a
  | Some a, c -> Add (a, Const c)

(* A sum or product rebuilt from simplified operands is linear again when
   a floordiv or mod by 1 folded away inside it: collecting it then keeps
   [simplify] idempotent, so a map prints the same after a text round
   trip. A constant operand of such a product is always a [Const], so
   [linear_shape] tells without allocating whether [linearize] succeeds
   (most rebuilt sums keep a floordiv or mod). *)
let rec linear_shape = function
  | Dim _ | Sym _ | Const _ -> true
  | Add (a, b) -> linear_shape a && linear_shape b
  | Mul (Const _, e) | Mul (e, Const _) -> linear_shape e
  | Mul _ | Floor_div _ | Mod _ -> false

let relinearize e =
  if linear_shape e then of_linear (Option.get (linearize e)) else e

let rec simplify e =
  match linearize e with
  | Some l -> of_linear l
  | None -> (
      match e with
      | Dim _ | Sym _ | Const _ -> e
      | Add (a, b) -> (
          match (simplify a, simplify b) with
          | Const x, Const y -> Const (x + y)
          | Const 0, s | s, Const 0 -> s
          | sa, sb -> relinearize (Add (sa, sb)))
      | Mul (a, b) -> (
          match (simplify a, simplify b) with
          | Const x, Const y -> Const (x * y)
          | Const 1, s | s, Const 1 -> s
          | (Const 0 as z), _ | _, (Const 0 as z) -> z
          | sa, sb -> relinearize (Mul (sa, sb)))
      | Floor_div (a, b) -> (
          match (simplify a, simplify b) with
          | Const x, Const y when y <> 0 -> Const (floordiv x y)
          | sa, Const 1 -> sa
          | sa, sb -> Floor_div (sa, sb))
      | Mod (a, b) -> (
          match (simplify a, simplify b) with
          | Const x, Const y when y <> 0 -> Const (floormod x y)
          | _, Const (1 | -1) -> Const 0
          | sa, sb -> Mod (sa, sb)))

let add a b = simplify (Add (a, b))
let mul a b = simplify (Mul (a, b))
let neg a = mul (Const (-1)) a
let sub a b = add a (neg b)
let floor_div a b = simplify (Floor_div (a, b))
let mod_ a b = simplify (Mod (a, b))

let rec eval ~dims ~syms = function
  | Dim i ->
      if i < 0 || i >= Array.length dims then
        invalid_arg "Affine_expr.eval: dim out of range"
      else dims.(i)
  | Sym i ->
      if i < 0 || i >= Array.length syms then
        invalid_arg "Affine_expr.eval: sym out of range"
      else syms.(i)
  | Const c -> c
  | Add (a, b) -> eval ~dims ~syms a + eval ~dims ~syms b
  | Mul (a, b) -> eval ~dims ~syms a * eval ~dims ~syms b
  | Floor_div (a, b) ->
      let x = eval ~dims ~syms a and y = eval ~dims ~syms b in
      if y = 0 then invalid_arg "Affine_expr.eval: division by zero"
      else floordiv x y
  | Mod (a, b) ->
      let x = eval ~dims ~syms a and y = eval ~dims ~syms b in
      if y = 0 then invalid_arg "Affine_expr.eval: modulo by zero"
      else floormod x y

let is_constant e =
  match simplify e with Const c -> Some c | _ -> None

let is_single_dim e =
  match linearize e with
  | Some { dim_coeffs = [ (d, k) ]; sym_coeffs = []; constant = c }
    when k <> 0 ->
      Some (k, d, c)
  | _ -> None

let rec fold_vars f acc = function
  | (Dim _ | Sym _) as v -> f acc v
  | Const _ -> acc
  | Add (a, b) | Mul (a, b) | Floor_div (a, b) | Mod (a, b) ->
      fold_vars f (fold_vars f acc a) b

let used_dims e =
  fold_vars (fun acc v -> match v with Dim i -> i :: acc | _ -> acc) [] e
  |> List.sort_uniq compare

let max_dim e = List.fold_left (fun m i -> max m (i + 1)) 0 (used_dims e)

let rec substitute_dims f = function
  | Dim i -> f i
  | (Sym _ | Const _) as e -> e
  | Add (a, b) -> add (substitute_dims f a) (substitute_dims f b)
  | Mul (a, b) -> mul (substitute_dims f a) (substitute_dims f b)
  | Floor_div (a, b) -> floor_div (substitute_dims f a) (substitute_dims f b)
  | Mod (a, b) -> mod_ (substitute_dims f a) (substitute_dims f b)

let row_major_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let row_major_offset strides exprs =
  let acc = ref (const 0) in
  List.iteri (fun i e -> acc := add !acc (mul (const strides.(i)) e)) exprs;
  !acc

(* Monomorphic structural walk with a physical fast path at every node. *)
let rec structural_equal a b =
  a == b
  ||
  match (a, b) with
  | Dim x, Dim y | Sym x, Sym y | Const x, Const y -> Int.equal x y
  | Add (a1, a2), Add (b1, b2)
  | Mul (a1, a2), Mul (b1, b2)
  | Floor_div (a1, a2), Floor_div (b1, b2)
  | Mod (a1, a2), Mod (b1, b2) ->
      structural_equal a1 b1 && structural_equal a2 b2
  | _ -> false

(* Semantic equality up to simplification, as before — but the walk is
   monomorphic and already-canonical operands never re-simplify. *)
let equal a b = a == b || structural_equal (simplify a) (simplify b)

let tag = function
  | Dim _ -> 0
  | Sym _ -> 1
  | Const _ -> 2
  | Add _ -> 3
  | Mul _ -> 4
  | Floor_div _ -> 5
  | Mod _ -> 6

let rec structural_compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Dim x, Dim y | Sym x, Sym y | Const x, Const y -> Int.compare x y
    | Add (a1, a2), Add (b1, b2)
    | Mul (a1, a2), Mul (b1, b2)
    | Floor_div (a1, a2), Floor_div (b1, b2)
    | Mod (a1, a2), Mod (b1, b2) -> (
        match structural_compare a1 b1 with
        | 0 -> structural_compare a2 b2
        | c -> c)
    | _ -> Int.compare (tag a) (tag b)

let compare a b =
  if a == b then 0 else structural_compare (simplify a) (simplify b)

(* Precedence: 1 = additive, 2 = multiplicative, 3 = atom. A child is
   parenthesized when its precedence is below what its context requires. *)
let prec = function
  | Dim _ | Sym _ | Const _ -> 3
  | Mul _ | Floor_div _ | Mod _ -> 2
  | Add _ -> 1

let rec add_prec b req e =
  let wrap = prec e < req in
  if wrap then Buffer.add_char b '(';
  (match e with
  | Dim i ->
      Buffer.add_char b 'd';
      Buffer.add_string b (string_of_int i)
  | Sym i ->
      Buffer.add_char b 's';
      Buffer.add_string b (string_of_int i)
  | Const c -> Buffer.add_string b (string_of_int c)
  | Add (a, Const c) when c < 0 ->
      add_prec b 1 a;
      Buffer.add_string b " - ";
      Buffer.add_string b (string_of_int (-c))
  | Add (a, Mul (Const (-1), c)) -> add_binary b 1 a " - " 2 c
  | Add (a, c) -> add_binary b 1 a " + " 1 c
  | Mul (a, c) -> add_binary b 2 a " * " 2 c
  | Floor_div (a, c) -> add_binary b 3 a " floordiv " 3 c
  | Mod (a, c) -> add_binary b 3 a " mod " 3 c);
  if wrap then Buffer.add_char b ')'

and add_binary b pa a op pc c =
  add_prec b pa a;
  Buffer.add_string b op;
  add_prec b pc c

let add_to_buffer b e = add_prec b 0 e

let to_string e =
  let b = Buffer.create 32 in
  add_to_buffer b e;
  Buffer.contents b

let pp fmt e = Format.pp_print_string fmt (to_string e)
