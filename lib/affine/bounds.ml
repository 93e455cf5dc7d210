open Ir
module A = Affine_ops
module E = Affine_expr

type interval = { lo : int; hi : int }

(* Anything whose ends could leave this window is unknown, which keeps
   the arithmetic inside native-int range: products of two in-window
   values cannot overflow. *)
let cap = 1 lsl 30
let mk lo hi =
  if lo > hi || lo < -cap || hi > cap then None else Some { lo; hi }
let const c = mk c c
let lift f a b = match (a, b) with Some a, Some b -> f a b | _ -> None
let add = lift (fun a b -> mk (a.lo + b.lo) (a.hi + b.hi))
let sub = lift (fun a b -> mk (a.lo - b.hi) (a.hi - b.lo))

let mul =
  lift (fun a b ->
      let ps = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
      mk (List.fold_left min max_int ps) (List.fold_left max min_int ps))

(* Division only by a non-zero constant: [floordiv] is monotone in the
   dividend, and a floor-mod result carries the divisor's sign. *)
let floordiv a b =
  match (a, b) with
  | Some a, Some { lo = y; hi } when y = hi && y <> 0 ->
      let q1 = E.floordiv a.lo y and q2 = E.floordiv a.hi y in
      mk (min q1 q2) (max q1 q2)
  | _ -> None

let floormod _ = function
  | Some { lo = y; hi } when y = hi && y <> 0 ->
      if y > 0 then mk 0 (y - 1) else mk (y + 1) 0
  | _ -> None

(* [e]'s interval when dim [d] lies in [dim d]. Where every dim occurs
   once in a linear [e], these are the exact extremes of [e] over the
   product of the dims' intervals. *)
let rec expr dim = function
  | E.Dim d -> dim d
  | E.Sym _ -> None
  | E.Const c -> const c
  | E.Add (a, b) -> add (expr dim a) (expr dim b)
  | E.Mul (a, b) -> mul (expr dim a) (expr dim b)
  | E.Floor_div (a, b) -> floordiv (expr dim a) (expr dim b)
  | E.Mod (a, b) -> floormod (expr dim a) (expr dim b)

(* An iv running from [lb] while below [ub] by [step >= 1]: from a
   constant start it ends at the last [lb + k·step] below [ub.hi]. *)
let iv lb ub step =
  lift
    (fun l u ->
      let last = max l.lo (u.hi - 1) in
      if l.lo = l.hi then mk l.lo (l.lo + ((last - l.lo) / step * step))
      else mk l.lo last)
    lb ub

(* ---- the analysis: an interval per integer value id -------------------- *)

type t = (int, interval) Hashtbl.t

let lookup t (v : Core.value) = Hashtbl.find_opt t v.Core.v_id
let set t (v : Core.value) = Option.iter (Hashtbl.replace t v.Core.v_id)

let over t args =
  expr (fun d -> if d < Array.length args then lookup t args.(d) else None)

(* [e] over [args] with each dim renamed to the first dim bound to its
   value ([substitute_dims] also gathers the terms of linear parts). *)
let merged args e =
  let n = Array.length args in
  let rec first d i = if args.(i) == args.(d) then i else first d (i + 1) in
  let rec distinct d = d >= n || (first d 0 = d && distinct (d + 1)) in
  if distinct 0 then e
  else E.substitute_dims (fun d -> E.dim (if d < n then first d 0 else d)) e

(* The max (lower) or min (upper) of a bound map's results. *)
let bound t sel ((map, args) : A.bound) =
  let args = Array.of_list args in
  let pick = lift (fun a b -> mk (sel a.lo b.lo) (sel a.hi b.hi)) in
  match List.map (fun e -> over t args (merged args e)) map.exprs with
  | [] -> None
  | r :: rs -> List.fold_left pick r rs

let visit t (op : Core.op) =
  let operand i = lookup t (Core.operand op i) in
  let def r = set t (Core.result op 0) r in
  match op.o_name with
  | "arith.constant" -> (
      match Core.attr op "value" with Attr.Int i -> def (const i) | _ -> ())
  | "arith.addi" -> def (add (operand 0) (operand 1))
  | "arith.subi" -> def (sub (operand 0) (operand 1))
  | "arith.muli" -> def (mul (operand 0) (operand 1))
  | "arith.floordivsi" -> def (floordiv (operand 0) (operand 1))
  | "arith.remsi" -> def (floormod (operand 0) (operand 1))
  | "affine.apply" -> (
      match (Attr.get_map (Core.attr op "map")).Affine_map.exprs with
      | e :: _ -> def (over t op.o_operands (merged op.o_operands e))
      | [] -> ())
  | "affine.for" ->
      if A.for_step op >= 1 then
        set t (A.for_iv op)
          (iv (bound t max (A.for_lb op)) (bound t min (A.for_ub op))
             (A.for_step op))
  | "scf.for" ->
      (* Unless it is one constant, the step may be any value >= 1: a
         non-positive step fails before the body runs. *)
      let step =
        match operand 2 with
        | Some { lo; hi } when lo = hi && lo >= 1 -> lo
        | _ -> 1
      in
      set t (Core.single_block op 0).Core.b_args.(0)
        (iv (operand 0) (operand 1) step)
  | _ -> ()

let analyze ops =
  let t = Hashtbl.create 64 in
  List.iter (fun op -> Core.walk op (visit t)) ops;
  t

(* ---- accesses ----------------------------------------------------------- *)

(* The ivs of the loops around [op] when [op] runs once for every point
   of the product of their intervals: every op around it up to its
   [func.func] is an [affine.for] with constant bounds that runs. *)
let rec box (op : Core.op) =
  match Core.parent_op op with
  | Some p when Core.is_func p -> Some []
  | Some p when A.is_for p -> (
      match (A.for_const_bounds p, box p) with
      | Some (lb, ub), Some ivs when lb < ub -> Some (A.for_iv p :: ivs)
      | _ -> None)
  | _ -> None

let interval t idx e =
  Option.map (fun { lo; hi } -> (lo, hi)) (over t idx (merged idx e))

let access (op : Core.op) =
  match op.o_name with
  | "affine.load" | "affine.store" ->
      let idx = Array.of_list (A.access_indices op) in
      Some (A.access_memref op, (A.access_map op).Affine_map.exprs, idx)
  | "memref.load" | "memref.store" ->
      let base = Bool.to_int (op.o_name = "memref.store") in
      let n = Core.num_operands op - base - 1 in
      let idx = Array.sub op.o_operands (base + 1) n in
      Some (Core.operand op base, List.init (Array.length idx) E.dim, idx)
  | _ -> None

(* The interval of [op]'s subscript [e] over [idx] when [e] reaches both
   of its ends: [op] is boxed and [e] is linear in box ivs, each once. *)
let exact t op idx e =
  match (box op, E.linearize e) with
  | Some ivs, Some ({ E.dim_coeffs; sym_coeffs = []; _ } as l)
    when List.for_all (fun (d, _) -> List.memq idx.(d) ivs) dim_coeffs ->
      over t idx (E.of_linear l)
  | _ -> None

(* Per dimension of an access: its extent, the subscript's interval and,
   on demand, its exact interval. [None] for dynamic shapes and a
   subscript count other than the rank. *)
let subscripts t op =
  Option.bind (access op) (fun (memref, exprs, idx) ->
      match Typ.static_shape memref.Core.v_typ with
      | Some shape when List.length shape = List.length exprs ->
          let sub extent e =
            let e = merged idx e in
            (extent, over t idx e, fun () -> exact t op idx e)
          in
          Some (List.map2 sub shape exprs)
      | _ -> None)

let inside extent = function
  | Some { lo; hi } -> lo >= 0 && hi < extent
  | None -> false

let proven_in t op =
  match subscripts t op with
  | Some subs -> List.for_all (fun (extent, r, _) -> inside extent r) subs
  | None -> false

(* The exact interval lies inside the over-approximating one, so only a
   subscript not proven in can be proven out. *)
let check_access ~who t op =
  let reject dim (extent, r, exact) =
    match if inside extent r then None else exact () with
    | Some { lo; hi } as r when not (inside extent r) ->
        Support.Diag.errorf ~loc:(Core.nearest_loc op)
          "%s: %s index reaches %d, out of bounds [0, %d) at dim %d" who
          op.Core.o_name (if lo < 0 then lo else hi) extent dim
    | _ -> ()
  in
  Option.iter (List.iteri reject) (subscripts t op)

let check_func f = Core.walk f (check_access ~who:"bounds" (analyze [ f ]))
