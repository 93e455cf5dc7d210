type dim = Static of int | Dynamic

type t =
  | F32
  | F64
  | I1
  | I32
  | I64
  | Index
  | Mem_ref of dim list * t
  | Fun of t list * t list

let is_scalar = function
  | F32 | F64 | I1 | I32 | I64 | Index -> true
  | Mem_ref _ | Fun _ -> false

let is_float = function F32 | F64 -> true | _ -> false
let is_int = function I1 | I32 | I64 | Index -> true | _ -> false

let memref shape elem = Mem_ref (List.map (fun d -> Static d) shape, elem)

let memref_rank = function
  | Mem_ref (shape, _) -> List.length shape
  | _ -> invalid_arg "Typ.memref_rank: not a memref"

let memref_elem = function
  | Mem_ref (_, e) -> e
  | _ -> invalid_arg "Typ.memref_elem: not a memref"

let static_shape = function
  | Mem_ref (shape, _) ->
      List.fold_right
        (fun d acc ->
          match (d, acc) with
          | Static n, Some tl -> Some (n :: tl)
          | _ -> None)
        shape (Some [])
  | _ -> None

let num_elements t =
  Option.map (List.fold_left ( * ) 1) (static_shape t)

let dim_equal (a : dim) (b : dim) =
  match (a, b) with
  | Static x, Static y -> Int.equal x y
  | Dynamic, Dynamic -> true
  | _ -> false

let rec list_equal eq a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> eq x y && list_equal eq xs ys
  | _ -> false

(* Monomorphic structural walk with a physical fast path at every node,
   so a type shared by reference compares in O(1). *)
let rec equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | F32, F32 | F64, F64 | I1, I1 | I32, I32 | I64, I64 | Index, Index ->
      true
  | Mem_ref (sa, ea), Mem_ref (sb, eb) ->
      list_equal dim_equal sa sb && equal ea eb
  | Fun (aa, ra), Fun (ab, rb) ->
      list_equal equal aa ab && list_equal equal ra rb
  | _ -> false

let rec add_to_buffer b = function
  | F32 -> Buffer.add_string b "f32"
  | F64 -> Buffer.add_string b "f64"
  | I1 -> Buffer.add_string b "i1"
  | I32 -> Buffer.add_string b "i32"
  | I64 -> Buffer.add_string b "i64"
  | Index -> Buffer.add_string b "index"
  | Mem_ref (shape, elem) ->
      Buffer.add_string b "memref<";
      List.iter
        (fun d ->
          (match d with
          | Static n -> Buffer.add_string b (string_of_int n)
          | Dynamic -> Buffer.add_char b '?');
          Buffer.add_char b 'x')
        shape;
      add_to_buffer b elem;
      Buffer.add_char b '>'
  | Fun (args, results) ->
      Buffer.add_char b '(';
      add_list b args;
      Buffer.add_string b ") -> (";
      add_list b results;
      Buffer.add_char b ')'

and add_list b ts =
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string b ", ";
      add_to_buffer b t)
    ts

let to_string t =
  let b = Buffer.create 32 in
  add_to_buffer b t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
