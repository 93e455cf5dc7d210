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

let memref_shape = function
  | Mem_ref (shape, _) -> shape
  | _ -> invalid_arg "Typ.memref_shape: not a memref"

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

(* Monomorphic structural walk with a physical fast path at every node:
   interned types (the common case — see [intern]) compare in O(1). *)
let rec structural_equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | F32, F32 | F64, F64 | I1, I1 | I32, I32 | I64, I64 | Index, Index ->
      true
  | Mem_ref (sa, ea), Mem_ref (sb, eb) ->
      list_equal dim_equal sa sb && structural_equal ea eb
  | Fun (aa, ra), Fun (ab, rb) ->
      list_equal structural_equal aa ab && list_equal structural_equal ra rb
  | _ -> false

let equal = structural_equal

module Interner = Support.Intern.Make (struct
  type nonrec t = t

  let equal = structural_equal
  let hash = Hashtbl.hash
end)

(* [List.map f l] that returns [l] itself when [f] fixes every element, so
   interning an already-canonical node allocates nothing. *)
let rec map_preserving f l =
  match l with
  | [] -> l
  | x :: tl ->
      let x' = f x and tl' = map_preserving f tl in
      if x' == x && tl' == tl then l else x' :: tl'

(* Bottom-up, so a canonical node only ever points at canonical children
   (the invariant docs/PERF.md relies on). Scalar constructors are OCaml
   immediates — physical equality already holds — so only the allocated
   shapes go through the table. *)
let rec intern t =
  match t with
  | F32 | F64 | I1 | I32 | I64 | Index -> t
  | Mem_ref (shape, elem) ->
      let elem' = intern elem in
      Interner.intern (if elem' == elem then t else Mem_ref (shape, elem'))
  | Fun (args, results) ->
      let args' = map_preserving intern args
      and results' = map_preserving intern results in
      Interner.intern
        (if args' == args && results' == results then t
         else Fun (args', results'))

let interner_stats = Interner.stats

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
