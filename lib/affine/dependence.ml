open Ir
module E = Affine_expr

type dist = Dist of int | Any
type t = Independent | Vector of dist array

exception Independent_pair

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* One subscript pair [a(x) = b(y)]. [true] when it pins no common loop
   ([< depth]) except as [k·i + c] on both sides, whose distance goes
   into [dists]; each side's higher dims are unknowns of its own. *)
let subscript dists depth (a : E.linear) (b : E.linear) =
  let delta = a.constant - b.constant in
  match (a.dim_coeffs, b.dim_coeffs) with
  | [ (l, k) ], [ (l', k') ] when l = l' && k = k' && l < depth ->
      if delta mod k <> 0 then raise Independent_pair;
      (match dists.(l) with
      | Dist d when d <> delta / k -> raise Independent_pair
      | _ -> dists.(l) <- Dist (delta / k));
      true
  | xs, ys ->
      let g = List.fold_left (fun g (_, k) -> gcd g k) 0 (xs @ ys) in
      if delta <> 0 && (g = 0 || delta mod g <> 0) then raise Independent_pair;
      List.for_all (fun (d, _) -> d >= depth) (xs @ ys)

let test ~depth a b =
  let dists = Array.make depth Any in
  let exact ok a b =
    match (a, b) with
    | Some a, Some b -> subscript dists depth a b && ok
    | _ -> false
  in
  try
    if List.length a = List.length b && List.fold_left2 exact true a b then
      Vector dists
    else Vector (Array.make depth Any)
  with Independent_pair -> Independent

let to_string v =
  let dist = function Dist d -> string_of_int d | Any -> "*" in
  "(" ^ String.concat ", " (List.map dist (Array.to_list v)) ^ ")"

let dims equal common =
  let others = ref [] in
  let position x xs = List.find_index (equal x) xs in
  fun x ->
    match position x common with
    | Some i -> E.dim i
    | None ->
        if position x !others = None then others := !others @ [ x ];
        E.dim (List.length common + Option.get (position x !others))

let can_pos = function Any -> true | Dist d -> d > 0
let can_neg = function Any -> true | Dist d -> d < 0
let can_zero = function Any -> true | Dist d -> d = 0

(* The dependence can join two instances in one iteration of loops
   [0, n); an outer loop that carries it keeps it. *)
let meets_within v n = Array.for_all can_zero (Array.sub v 0 n)

let permutable ~band v =
  let loops p =
    List.filter (fun i -> p v.(i)) (List.init (Array.length v - band) (( + ) band))
  in
  (not (meets_within v band))
  ||
  match (loops can_pos, loops can_neg) with
  | [], _ | _, [] -> true
  | [ i ], [ j ] -> i = j
  | _ -> false

(* Once [at] moves innermost, a dependence first nonzero there must not
   run backward in the first later loop where it is nonzero. *)
let rotatable ~at v =
  let rec later j =
    j < Array.length v
    && ((can_pos v.(at) && can_neg v.(j))
       || (can_neg v.(at) && can_pos v.(j))
       || (can_zero v.(j) && later (j + 1)))
  in
  (not (meets_within v at)) || not (later (at + 1))

let fusable ~at v =
  (not (meets_within v at)) || match v.(at) with Dist d -> d >= 0 | Any -> false

let carried v =
  let last = Array.length v - 1 in
  meets_within v last && v.(last) <> Dist 0

let ivs_around op =
  let rec up acc (op : Core.op) =
    match Core.parent_op op with
    | Some p when Affine_ops.is_for p -> up (Affine_ops.for_iv p :: acc) p
    | Some p when not (Core.is_func p) -> up acc p
    | _ -> acc
  in
  up [] op

let is_store (op : Core.op) =
  op.o_name = "affine.store" || op.o_name = "memref.store"

(* The accesses under [ops] — op, memref, subscripts over [ivs] with the
   other index values numbered above them — or the first op that takes
   a memref without being an access. *)
let accesses ivs ops =
  let dim = dims Core.value_equal ivs in
  let found = ref [] and blind = ref None in
  let memref (v : Core.value) =
    match v.v_typ with Typ.Mem_ref _ -> true | _ -> false
  in
  let visit (op : Core.op) =
    match Bounds.access op with
    | Some (memref, exprs, idx) ->
        let linear e =
          match E.linearize (E.substitute_dims (fun d -> dim idx.(d)) e) with
          | Some ({ sym_coeffs = []; _ } as l) -> Some l
          | _ -> None
        in
        found := (op, memref, List.map linear exprs) :: !found
    | None ->
        if Option.is_none !blind && Array.exists memref op.o_operands then
          blind := Some op
  in
  List.iter (fun root -> Core.walk root visit) ops;
  match !blind with Some op -> Error op | None -> Ok (List.rev !found)

(* [x] is the reduction store [s] itself, or the load [s] accumulates
   into: the one access to [s]'s memref among the leaves of the tree of
   [addf] or of [mulf] that [s] stores, reading [s]'s cell. *)
let reduction (s, ms, ls) (x, mx, lx) =
  let rec leaves kind (v : Core.value) =
    match Core.defining_op v with
    | Some op when op.Core.o_name = kind ->
        List.concat_map (leaves kind) (Array.to_list op.o_operands)
    | Some op -> [ op ]
    | None -> []
  in
  let on_memref op =
    match Bounds.access op with
    | Some (m, _, _) -> Core.value_equal m ms
    | None -> false
  in
  is_store s && Core.value_equal ms mx
  && List.for_all Option.is_some ls
  && ls = lx
  &&
  match Core.defining_op (Core.operand s 0) with
  | Some op when op.o_name = "arith.addf" || op.o_name = "arith.mulf" -> (
      match List.filter on_memref (leaves op.o_name (Core.result op 0)) with
      | [ load ] -> Core.op_equal s x || Core.op_equal load x
      | _ -> false)
  | _ -> false

let describe op =
  match Bounds.access op with
  | None -> op.Core.o_name
  | Some (memref, exprs, idx) ->
      (if is_store op then "store " else "load ")
      ^ Printer.access_to_string memref idx exprs

let violation ?into ~ok (ivs, ops) =
  let depth = List.length ivs in
  let xs = accesses ivs ops in
  match (xs, Option.fold ~none:xs ~some:(fun (ivs, ops) -> accesses ivs ops) into) with
  | Error op, _ | _, Error op ->
      Some (op.Core.o_name ^ " takes a memref the dependence test cannot see into")
  | Ok xs, Ok ys ->
      let check ((a, ma, la) as x) ((b, mb, lb) as y) =
        if
          (is_store a || is_store b)
          && Core.value_equal ma mb
          && not (reduction x y || reduction y x)
        then
          match test ~depth la lb with
          | Vector v when not (ok v) ->
              Some
                (Printf.sprintf "%s and %s depend at distance %s" (describe a)
                   (describe b) (to_string v))
          | _ -> None
        else None
      in
      (* Within one body, each pair once: an access with itself and the
         ones after it. *)
      let rec first = function
        | [] -> None
        | x :: rest as suffix -> (
            match List.find_map (check x) (if Option.is_some into then ys else suffix) with
            | None -> first rest
            | found -> found)
      in
      first xs
