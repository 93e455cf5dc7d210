open Ir
module A = Affine.Affine_ops

type t =
  | For of (Core.op -> bool) option * t
  | Stmts of t list
  | Body of (Core.block -> bool)
  | Any

let for_ ?filter child = For (filter, child)
let stmts children = Stmts children
let body f = Body f
let any = Any

let rec perfect ~depth ~body_pred =
  if depth <= 0 then Body body_pred
  else For (None, perfect ~depth:(depth - 1) ~body_pred)

let perfect ~depth body_pred = perfect ~depth ~body_pred

let block_of_op op =
  (* The single body block of a region-carrying op. *)
  Core.single_block op 0

let non_terminator_ops (b : Core.block) =
  List.filter (fun o -> not (Dialect.is_terminator o)) (Core.ops_of_block b)

let rec matches t (op : Core.op) =
  match t with
  | Any -> true
  | For (filter, child) ->
      A.is_for op
      && (match filter with Some f -> f op | None -> true)
      && matches_in_block child (block_of_op op)
  | Stmts _ | Body _ ->
      (* These describe block contents, not a single op. *)
      false

and matches_in_block t (b : Core.block) =
  match t with
  | Any -> true
  | Body f ->
      (* Loop-free body required. *)
      List.for_all (fun o -> not (A.is_for o)) (non_terminator_ops b) && f b
  | For _ -> (
      match non_terminator_ops b with
      | [ only ] -> matches t only
      | _ -> false)
  | Stmts children ->
      let ops = non_terminator_ops b in
      List.length ops = List.length children
      && List.for_all2 matches children ops

let matched_nest ~depth op =
  if not (A.is_for op) then None
  else
    let nest = Affine.Loops.perfect_nest op in
    if List.length nest = depth then Some nest else None
