open C_ast
module Dep = Affine.Dependence

(* The subscripts of [r] as linear forms over the common loops [loops]
   (dims [0, depth)), each other loop variable a dim above them. *)
let subscripts loops (r : ref_) =
  let var = Dep.dims String.equal loops in
  List.map
    (fun idx -> Ir.Affine_expr.linearize (affine_of_index var idx))
    r.subscripts

(* The references of a statement: written or not, array, subscripts. *)
let refs loops s =
  let w, r = stmt_accesses s in
  let ref_ written (x : ref_) = (written, x.array, subscripts loops x) in
  List.map (ref_ true) w @ List.map (ref_ false) r

(* How the statement with references [b] depends on the earlier one with
   [a] inside the last of [loops]: not at all, only within one of its
   iterations (so [a]'s loop may run first), or carried across them
   (they stay together). *)
let dependence loops a b =
  let depth = List.length loops in
  List.fold_left
    (fun acc (wa, xa, sa) ->
      List.fold_left
        (fun acc (wb, xb, sb) ->
          if acc = `Carried || not ((wa || wb) && String.equal xa xb) then acc
          else
            match Dep.test ~depth sa sb with
            | Dep.Independent -> acc
            | Dep.Vector v -> if Dep.carried v then `Carried else `Within)
        acc b)
    `None a

(* Allen–Kennedy: the strongly connected components of the statements'
   dependence graph, each a loop of its own, in a topological order with
   ties broken by first member. *)
let groups loops stmts =
  let s = Array.of_list stmts in
  let n = Array.length s in
  let refs = Array.map (refs loops) s in
  let reach = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match dependence loops refs.(i) refs.(j) with
      | `None -> ()
      | `Within -> reach.(i).(j) <- true
      | `Carried ->
          reach.(i).(j) <- true;
          reach.(j).(i) <- true
    done
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if reach.(i).(k) then
        for j = 0 to n - 1 do
          if reach.(k).(j) then reach.(i).(j) <- true
        done
    done
  done;
  let all = List.init n Fun.id in
  let together i j = i = j || (reach.(i).(j) && reach.(j).(i)) in
  let emitted = Array.make n false in
  (* Every statement that reaches [i] from outside its group is out. *)
  let ready i =
    (not emitted.(i))
    && List.for_all (fun k -> emitted.(k) || together i k || not reach.(k).(i)) all
  in
  let rec emit acc =
    match List.find_opt ready all with
    | None -> List.rev acc
    | Some i ->
        let members = List.filter (together i) all in
        List.iter (fun m -> emitted.(m) <- true) members;
        emit (List.map (Array.get s) members :: acc)
  in
  emit []

let rec stmt loops = function
  | S_assign _ as s -> [ s ]
  | S_for ({ var; body; _ } as l) -> (
      let loops = loops @ [ var ] in
      match List.concat_map (stmt loops) body with
      | [ _ ] as body -> [ S_for { l with body } ]
      | body -> List.map (fun g -> S_for { l with body = g }) (groups loops body))

let kernel k = { k with k_body = List.concat_map (stmt []) k.k_body }
