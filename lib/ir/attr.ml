type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Type of Typ.t
  | Ints of int list
  | Map of Affine_map.t
  | Grouping of int list list
  | List of t list

let rec ints_equal a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> Int.equal x y && ints_equal xs ys
  | _ -> false

let rec grouping_equal a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> ints_equal x y && grouping_equal xs ys
  | _ -> false

(* Length mismatches are handled by the list walk itself — the old
   [try List.for_all2 ... with _ -> false] swallowed *every* exception
   (including ones raised by a nested [Typ]/[Affine_map] comparison), not
   just the [Invalid_argument] of unequal lengths. Monomorphic throughout,
   with a physical fast path at every node. [Float] payloads compare by
   their bits: [-0.] and [0.] print apart and compute apart (a division
   by either differs), and a NaN equals a NaN of the same payload. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Str x, Str y -> String.equal x y
  | Type x, Type y -> Typ.equal x y
  | Ints x, Ints y -> ints_equal x y
  | Map x, Map y -> Affine_map.equal x y
  | Grouping x, Grouping y -> grouping_equal x y
  | List x, List y -> list_equal x y
  | _ -> false

and list_equal a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> equal x y && list_equal xs ys
  | _ -> false

let add_list b add xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      add x)
    xs

let add_int b i = Buffer.add_string b (string_of_int i)

(* Floats print in hexadecimal ([%h], exact) and strings as OCaml
   literals ([%S]), so both parse back bit for bit. *)
let rec add_to_buffer b = function
  | Unit -> Buffer.add_string b "unit"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> add_int b i
  | Float f -> Buffer.add_string b (Printf.sprintf "%h" f)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
  | Type t -> Typ.add_to_buffer b t
  | Ints is ->
      Buffer.add_char b '[';
      add_list b (add_int b) is;
      Buffer.add_char b ']'
  | Map m ->
      Buffer.add_string b "affine_map<";
      Affine_map.add_to_buffer b m;
      Buffer.add_char b '>'
  | Grouping g ->
      let add_group = function
        | [ d ] -> add_int b d
        | ds ->
            Buffer.add_char b '{';
            add_list b (add_int b) ds;
            Buffer.add_char b '}'
      in
      Buffer.add_char b '{';
      add_list b add_group g;
      Buffer.add_char b '}'
  | List l ->
      Buffer.add_char b '[';
      add_list b (add_to_buffer b) l;
      Buffer.add_char b ']'

let to_string t =
  let b = Buffer.create 32 in
  add_to_buffer b t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)

let kind_error want got =
  invalid_arg (Printf.sprintf "Attr: expected %s, got %s" want (to_string got))

let get_int = function Int i -> i | a -> kind_error "int" a
let get_float = function Float f -> f | a -> kind_error "float" a
let get_str = function Str s -> s | a -> kind_error "string" a
let get_ints = function Ints is -> is | a -> kind_error "ints" a
let get_map = function Map m -> m | a -> kind_error "affine map" a
let get_grouping = function Grouping g -> g | a -> kind_error "grouping" a
let get_list = function List l -> l | a -> kind_error "list" a
