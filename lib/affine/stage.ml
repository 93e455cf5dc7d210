open Ir
module D = Support.Diag
module E = Affine_expr

type t = { who : string; slots : (int, int) Hashtbl.t; mutable n : int }

let create ~who = { who; slots = Hashtbl.create 64; n = 0 }
let n_slots t = t.n
let find t (v : Core.value) = Hashtbl.find_opt t.slots v.Core.v_id

let def t v =
  match find t v with
  | Some s -> s
  | None ->
      let s = t.n in
      t.n <- s + 1;
      Hashtbl.replace t.slots v.Core.v_id s;
      s

let use t op v =
  match find t v with
  | Some s -> s
  | None ->
      D.errorf ~loc:(Core.nearest_loc op) "%s: expected an integer value"
        t.who

(* ---- expressions ------------------------------------------------------ *)

(* What a closure cannot run is rejected before anything is staged. *)
let check ~who ~loc ~what n_dims e =
  let rec go = function
    | E.Dim i ->
        if i < 0 || i >= n_dims then
          D.errorf ~loc "%s: %s reads d%d but has %d operands" who what i
            n_dims
    | E.Sym _ -> D.errorf ~loc "%s: %s uses affine symbols" who what
    | E.Const _ -> ()
    | E.Add (a, b) | E.Mul (a, b) ->
        go a;
        go b
    | E.Floor_div (a, b) | E.Mod (a, b) -> (
        go a;
        match E.is_constant b with
        | Some 0 -> D.errorf ~loc "%s: %s divides by zero" who what
        | Some _ -> ()
        | None -> D.errorf ~loc "%s: %s divides by a non-constant" who what)
  in
  go e

(* [b + sum k * frame.(s)] over [(s, k)] terms. *)
let linear b terms : int array -> int =
  match terms with
  | [] -> fun _ -> b
  | [ (s0, 1) ] when b = 0 -> fun fr -> fr.(s0)
  | [ (s0, k0) ] -> fun fr -> b + (k0 * fr.(s0))
  | [ (s0, k0); (s1, k1) ] -> fun fr -> b + (k0 * fr.(s0)) + (k1 * fr.(s1))
  | [ (s0, k0); (s1, k1); (s2, k2) ] ->
      fun fr -> b + (k0 * fr.(s0)) + (k1 * fr.(s1)) + (k2 * fr.(s2))
  | terms ->
      let ss = Array.of_list (List.map fst terms) in
      let ks = Array.of_list (List.map snd terms) in
      fun fr ->
        let acc = ref b in
        for i = 0 to Array.length ss - 1 do
          acc := !acc + (ks.(i) * fr.(ss.(i)))
        done;
        !acc

(* A checked expression: its linear form if it has one, else its
   operator over staged operands (a divisor is a non-zero constant). *)
let rec stage slots e =
  match E.linearize e with
  | Some l ->
      linear l.E.constant
        (List.map (fun (d, k) -> (slots.(d), k)) l.E.dim_coeffs)
  | None -> (
      let divisor b = Option.get (E.is_constant b) in
      match e with
      | E.Add (a, b) ->
          let ca = stage slots a and cb = stage slots b in
          fun fr -> ca fr + cb fr
      | E.Mul (a, b) ->
          let ca = stage slots a and cb = stage slots b in
          fun fr -> ca fr * cb fr
      | E.Floor_div (a, b) ->
          let ca = stage slots a and k = divisor b in
          fun fr -> E.floordiv (ca fr) k
      | E.Mod (a, b) ->
          let ca = stage slots a and k = divisor b in
          fun fr -> E.floormod (ca fr) k
      | E.Dim _ | E.Sym _ | E.Const _ -> assert false)

let expr ~who ~loc ~what slots e =
  check ~who ~loc ~what (Array.length slots) e;
  stage slots e

let operands t op args = Array.map (use t op) args

(* ---- affine.apply and loop bounds ------------------------------------ *)

let apply t op =
  let loc = Core.nearest_loc op in
  match (Attr.get_map (Core.attr op "map")).Affine_map.exprs with
  | [] -> D.errorf ~loc "%s: affine.apply map has no results" t.who
  | e :: _ ->
      expr ~who:t.who ~loc ~what:"affine.apply"
        (operands t op op.Core.o_operands)
        e

(* The [min] ([minimize]) or [max] of a bound map's results. *)
let bound t op ~minimize ((map, args) : Affine_ops.bound) =
  let loc = Core.nearest_loc op in
  let what = if minimize then "upper bound" else "lower bound" in
  let slots = operands t op (Array.of_list args) in
  match List.map (expr ~who:t.who ~loc ~what slots) map.Affine_map.exprs with
  | [] -> D.errorf ~loc "%s: affine.for %s map has no results" t.who what
  | [ f ] -> f
  | f :: rest ->
      let rest = Array.of_list rest in
      fun fr ->
        let acc = ref (f fr) in
        for i = 0 to Array.length rest - 1 do
          let v = rest.(i) fr in
          if (if minimize then v < !acc else v > !acc) then acc := v
        done;
        !acc

type level = {
  step : int;
  lb : int array -> int;
  ub : int array -> int;
  iv_slot : int;
}

let level t op =
  let step = Affine_ops.for_step op in
  if step <= 0 then
    D.errorf ~loc:(Core.nearest_loc op) "%s: affine.for with non-positive step"
      t.who;
  let lb = bound t op ~minimize:false (Affine_ops.for_lb op) in
  let ub = bound t op ~minimize:true (Affine_ops.for_ub op) in
  { step; lb; ub; iv_slot = def t (Affine_ops.for_iv op) }

(* ---- access offsets --------------------------------------------------- *)

(* An access's location, shape, row-major strides, subscripts and index
   operands. *)
let access t op =
  let loc = Core.nearest_loc op in
  let memref, exprs, idx = Option.get (Bounds.access op) in
  let shape =
    match Typ.static_shape memref.Core.v_typ with
    | Some shape -> Array.of_list shape
    | None -> D.errorf ~loc "%s: dynamic memref shapes unsupported" t.who
  in
  if List.length exprs <> Array.length shape then
    D.errorf ~loc "%s: %s map arity does not match memref rank" t.who
      op.Core.o_name;
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  (loc, shape, strides, exprs, idx)

let offset t op =
  let loc, _, strides, exprs, idx = access t op in
  expr ~who:t.who ~loc ~what:op.Core.o_name (operands t op idx)
    (E.row_major_offset strides exprs)

let subscripts t op =
  let loc, _, _, exprs, idx = access t op in
  let slots = operands t op idx in
  Array.of_list
    (List.map (expr ~who:t.who ~loc ~what:op.Core.o_name slots) exprs)

type strided = { base : int array -> int; coeffs : int array }

(* [Some l] when the subscripts are the mixed-radix digits of one [l]:
   subscript [i] is [(l floordiv strides.(i)) mod shape.(i)] (no
   [floordiv] where the stride is 1), and the first may lack its [mod].
   Where [0 <= l < shape.(0) * strides.(0)], the row-major offset of
   those digits is [l] itself, so [bounds] must prove that. *)
let digits_of bounds shape strides exprs idx =
  let digit i e =
    let is k = function E.Const c -> c = k | _ -> false in
    match e with
    | E.Mod (E.Floor_div (l, q), n) when is strides.(i) q && is shape.(i) n ->
        Some l
    | E.Mod (l, n) when strides.(i) = 1 && is shape.(i) n -> Some l
    | E.Floor_div (l, q) when i = 0 && is strides.(0) q -> Some l
    | _ -> None
  in
  match List.mapi digit exprs with
  | Some l :: rest
    when List.for_all
           (function Some l' -> E.structural_equal l l' | None -> false)
           rest -> (
      match Bounds.interval bounds idx l with
      | Some (lo, hi) when lo >= 0 && hi < shape.(0) * strides.(0) -> Some l
      | _ -> None)
  | _ -> None

let strided t ~bounds ivs op =
  let loc, shape, strides, exprs, idx = access t op in
  let e = E.row_major_offset strides exprs in
  check ~who:t.who ~loc ~what:op.Core.o_name (Array.length idx) e;
  let e = Option.value ~default:e (digits_of bounds shape strides exprs idx) in
  Option.map
    (fun (l : E.linear) ->
      let coeffs = Array.make (Array.length ivs) 0 in
      let rest =
        List.filter_map
          (fun (d, k) ->
            match Array.find_index (Core.value_equal idx.(d)) ivs with
            | Some lvl ->
                coeffs.(lvl) <- coeffs.(lvl) + k;
                None
            | None -> Some (use t op idx.(d), k))
          l.dim_coeffs
      in
      { base = linear l.constant rest; coeffs })
    (E.linearize e)
