open Ir
module A = Affine.Affine_ops

type placeholder = int
type array_placeholder = int

type reject = Shape | Unify

type ctx = {
  mutable next_ph : int;
  mutable next_aph : int;
  (* Solution state. *)
  ph_assign : (int, Core.value) Hashtbl.t;  (** placeholder -> iv *)
  aph_assign : (int, Core.value) Hashtbl.t;  (** array ph -> memref *)
  mutable matched_const : float option;
  mutable used : bool;  (* consumed by a match_block call *)
  mutable last_reject : reject option;
      (* which stage rejected the last failed match_block *)
}

let create_ctx () =
  {
    next_ph = 0;
    next_aph = 0;
    ph_assign = Hashtbl.create 8;
    aph_assign = Hashtbl.create 8;
    matched_const = None;
    used = false;
    last_reject = None;
  }

let reset ctx =
  Hashtbl.reset ctx.ph_assign;
  Hashtbl.reset ctx.aph_assign;
  ctx.matched_const <- None

let reset_ctx ctx =
  reset ctx;
  ctx.used <- false

let placeholder ctx =
  let id = ctx.next_ph in
  ctx.next_ph <- id + 1;
  id

let array_placeholder ctx =
  let id = ctx.next_aph in
  ctx.next_aph <- id + 1;
  id

(* A pattern index expression in linear form: placeholder terms plus a
   constant. *)
type pexpr = { terms : (placeholder * int) list; shift : int }

let p ph = { terms = [ (ph, 1) ]; shift = 0 }
let pconst c = { terms = []; shift = c }

let term ?(coeff = 1) ?(shift = 0) ph =
  if coeff = 0 then { terms = []; shift }
  else { terms = [ (ph, coeff) ]; shift }

let padd a b =
  let merged =
    List.fold_left
      (fun acc (ph, k) ->
        match List.assoc_opt ph acc with
        | Some k' -> (ph, k + k') :: List.remove_assoc ph acc
        | None -> (ph, k) :: acc)
      a.terms b.terms
    |> List.filter (fun (_, k) -> k <> 0)
  in
  { terms = merged; shift = a.shift + b.shift }

type access = array_placeholder * pexpr list

let access aph idxs = (aph, idxs)

type stmt_pattern =
  | Contraction of { out : access; in1 : access; in2 : access }
  | Init_const of { out : access }
  | Copy of { out : access; src : access }

(* ---- Concrete access extraction ---------------------------------- *)

(* A concrete subscript: induction-variable terms plus a constant. *)
type csub = { civs : (Core.value * int) list; cshift : int }

(* Convert one result expression of an access map (over the op's index
   operands) into iv terms. Fails (None) on floordiv/mod subscripts. *)
let concrete_sub (operands : Core.value array) e =
  match Affine_expr.linearize e with
  | None -> None
  | Some lin ->
      if lin.Affine_expr.sym_coeffs <> [] then None
      else
        let tbl = Hashtbl.create 4 in
        List.iter
          (fun (d, k) ->
            let iv = operands.(d) in
            let prev =
              match Hashtbl.find_opt tbl iv.Core.v_id with
              | Some (_, k') -> k'
              | None -> 0
            in
            Hashtbl.replace tbl iv.Core.v_id (iv, prev + k))
          lin.dim_coeffs;
        let civs =
          Hashtbl.fold (fun _ (iv, k) acc ->
              if k = 0 then acc else (iv, k) :: acc)
            tbl []
          |> List.sort (fun ((a : Core.value), _) (b, _) ->
                 compare a.Core.v_id b.Core.v_id)
        in
        Some { civs; cshift = lin.constant }

let concrete_access op =
  let memref = A.access_memref op in
  let map = A.access_map op in
  let operands = Array.of_list (A.access_indices op) in
  let subs =
    List.map (concrete_sub operands) map.Affine_map.exprs
  in
  if List.exists Option.is_none subs then None
  else Some (memref, List.map Option.get subs)

(* ---- Backtracking unification ------------------------------------- *)

(* The assignment trail lets us undo bindings on backtrack. *)
type trail = { mutable entries : [ `Ph of int | `Aph of int ] list }

let bind_ph ctx trail ph iv =
  match Hashtbl.find_opt ctx.ph_assign ph with
  | Some iv' -> Core.value_equal iv iv'
  | None ->
      (* Distinctness: no other placeholder may hold this candidate. *)
      let taken =
        Hashtbl.fold
          (fun _ v acc -> acc || Core.value_equal v iv)
          ctx.ph_assign false
      in
      if taken then false
      else begin
        Hashtbl.replace ctx.ph_assign ph iv;
        trail.entries <- `Ph ph :: trail.entries;
        true
      end

let bind_aph ctx trail aph memref =
  match Hashtbl.find_opt ctx.aph_assign aph with
  | Some m -> Core.value_equal m memref
  | None ->
      let taken =
        Hashtbl.fold
          (fun _ v acc -> acc || Core.value_equal v memref)
          ctx.aph_assign false
      in
      if taken then false
      else begin
        Hashtbl.replace ctx.aph_assign aph memref;
        trail.entries <- `Aph aph :: trail.entries;
        true
      end

let undo_to ctx trail mark =
  while trail.entries != mark do
    (match trail.entries with
    | [] -> assert false
    | `Ph ph :: rest ->
        Hashtbl.remove ctx.ph_assign ph;
        trail.entries <- rest
    | `Aph aph :: rest ->
        Hashtbl.remove ctx.aph_assign aph;
        trail.entries <- rest)
  done

(* Unify one pattern subscript with one concrete subscript under the
   current assignment; [k] continues the search. *)
let rec unify_sub ctx trail (pe : pexpr) (cs : csub) k =
  if pe.shift <> cs.cshift then false
  else
    match pe.terms with
    | [] -> cs.civs = [] && k ()
    | (ph, coeff) :: rest -> (
        match Hashtbl.find_opt ctx.ph_assign ph with
        | Some iv -> (
            (* Must consume the matching concrete term. *)
            match
              List.partition
                (fun ((civ : Core.value), ck) ->
                  Core.value_equal civ iv && ck = coeff)
                cs.civs
            with
            | [ _ ], remaining ->
                unify_sub ctx trail { terms = rest; shift = 0 }
                  { civs = remaining; cshift = 0 }
                  k
            | _ -> false)
        | None ->
            (* Try every concrete term with the right coefficient. *)
            List.exists
              (fun ((civ : Core.value), ck) ->
                ck = coeff
                &&
                let mark = trail.entries in
                if bind_ph ctx trail ph civ then
                  let remaining =
                    List.filter
                      (fun ((c : Core.value), _) ->
                        not (Core.value_equal c civ))
                      cs.civs
                  in
                  if
                    unify_sub ctx trail { terms = rest; shift = 0 }
                      { civs = remaining; cshift = 0 }
                      k
                  then true
                  else (
                    undo_to ctx trail mark;
                    false)
                else (
                  undo_to ctx trail mark;
                  false))
              cs.civs)

let unify_access ctx trail ((aph, pidx) : access)
    ((memref, csubs) : Core.value * csub list) k =
  let mark = trail.entries in
  let ok =
    bind_aph ctx trail aph memref
    && List.length pidx = List.length csubs
    &&
    let rec go = function
      | [], [] -> k ()
      | pe :: ps, cs :: css ->
          unify_sub ctx trail pe cs (fun () -> go (ps, css))
      | _ -> false
    in
    go (pidx, csubs)
  in
  if not ok then undo_to ctx trail mark;
  ok

(* ---- Statement-level matching ------------------------------------- *)

let block_ops (b : Core.block) =
  List.filter (fun o -> not (Dialect.is_terminator o)) (Core.ops_of_block b)

let defining (v : Core.value) = Core.defining_op v

let match_contraction ctx ~out ~in1 ~in2 (b : Core.block) =
  let ops = block_ops b in
  let stores = List.filter A.is_store ops in
  let loads = List.filter A.is_load ops in
  match (stores, List.length ops) with
  | [ store ], 6 when List.length loads = 3 -> (
      (* The store must be the last operation of the block. *)
      (match List.rev ops with
      | last :: _ when Core.op_equal last store -> ()
      | _ -> raise Exit);
      (* Read backwards from the stored value: add(load_out, mul(a, b)),
         commutatively. *)
      let stored = A.stored_value store in
      match defining stored with
      | Some add when String.equal add.Core.o_name "arith.addf" ->
          let try_operands (x : Core.value) (y : Core.value) =
            (* x: accumulator load; y: multiplication. *)
            match (defining x, defining y) with
            | Some ld_out, Some mul
              when A.is_load ld_out
                   && String.equal mul.Core.o_name "arith.mulf" ->
                let mul_loads =
                  Array.to_list mul.o_operands
                  |> List.map (fun v ->
                         match defining v with
                         | Some ld when A.is_load ld -> Some ld
                         | _ -> None)
                in
                (match mul_loads with
                | [ Some la; Some lb ] ->
                    (* Every load in the block must be one of the three. *)
                    let used = [ ld_out; la; lb ] in
                    List.for_all
                      (fun l -> List.exists (Core.op_equal l) used)
                      loads
                    && List.length (List.sort_uniq compare
                                      (List.map (fun (o : Core.op) -> o.o_id) used))
                       = 3
                    &&
                    let try_inputs la lb =
                      (* The op chain matched; any failure past this
                         point is the unification stage's. *)
                      ctx.last_reject <- Some Unify;
                      let trail = { entries = [] } in
                      let solve () =
                        match
                          ( concrete_access store,
                            concrete_access ld_out,
                            concrete_access la,
                            concrete_access lb )
                        with
                        | Some st, Some co, Some ca, Some cb ->
                            unify_access ctx trail out st (fun () ->
                                unify_access ctx trail out co (fun () ->
                                    unify_access ctx trail in1 ca (fun () ->
                                        unify_access ctx trail in2 cb
                                          (fun () -> true))))
                        | _ -> false
                      in
                      if solve () then true
                      else (
                        undo_to ctx trail [];
                        reset ctx;
                        false)
                    in
                    (* mul commutativity: in1*in2 or in2*in1. *)
                    try_inputs la lb || try_inputs lb la
                | _ -> false)
            | _ -> false
          in
          let x = Core.operand add 0 and y = Core.operand add 1 in
          (* add commutativity. *)
          try_operands x y || try_operands y x
      | _ -> false)
  | _ -> false

let match_init_const ctx ~out (b : Core.block) =
  let ops = block_ops b in
  match ops with
  | [ cst; store ]
    when Std_dialect.Arith.is_constant cst && A.is_store store -> (
      match
        ( Std_dialect.Arith.constant_float_value cst,
          Core.defining_op (A.stored_value store) )
      with
      | Some f, Some d when Core.op_equal d cst -> (
          ctx.last_reject <- Some Unify;
          match concrete_access store with
          | Some st ->
              let trail = { entries = [] } in
              if unify_access ctx trail out st (fun () -> true) then (
                ctx.matched_const <- Some f;
                true)
              else (
                reset ctx;
                false)
          | None -> false)
      | _ -> false)
  | _ -> false

let match_copy ctx ~out ~src (b : Core.block) =
  let ops = block_ops b in
  match ops with
  | [ load; store ]
    when A.is_load load && A.is_store store
         && (match Core.defining_op (A.stored_value store) with
            | Some d -> Core.op_equal d load
            | None -> false) -> (
      ctx.last_reject <- Some Unify;
      match (concrete_access store, concrete_access load) with
      | Some st, Some ld ->
          let trail = { entries = [] } in
          if
            unify_access ctx trail out st (fun () ->
                unify_access ctx trail src ld (fun () -> true))
          then true
          else (
            reset ctx;
            false)
      | _ -> false)
  | _ -> false

let match_block ctx pat b =
  if ctx.used then
    Support.Diag.errorf
      "Access.match_block: ctx already consumed by an earlier match — \
       solution bindings would be silently clobbered; create a fresh ctx \
       or call reset_ctx first";
  ctx.used <- true;
  reset ctx;
  (* Pessimistically an op-chain rejection; the matchers upgrade it to
     [Unify] once the statement's op chain has matched and only the
     access subscripts remain to be unified. *)
  ctx.last_reject <- Some Shape;
  let ok =
    try
      match pat with
      | Contraction { out; in1; in2 } -> match_contraction ctx ~out ~in1 ~in2 b
      | Init_const { out } -> match_init_const ctx ~out b
      | Copy { out; src } -> match_copy ctx ~out ~src b
    with Exit -> false
  in
  if not ok then reset ctx else ctx.last_reject <- None;
  ok

let last_reject ctx = ctx.last_reject

let iv_of ctx ph =
  match Hashtbl.find_opt ctx.ph_assign ph with
  | Some iv -> iv
  | None -> invalid_arg "Access.iv_of: placeholder has no assignment"

let array_of ctx aph =
  match Hashtbl.find_opt ctx.aph_assign aph with
  | Some v -> v
  | None -> invalid_arg "Access.array_of: array placeholder has no assignment"

let const_of ctx =
  match ctx.matched_const with
  | Some f -> f
  | None -> invalid_arg "Access.const_of: no constant was matched"

let solution_extent ctx ph =
  let iv = iv_of ctx ph in
  match iv.Core.v_def with
  | Core.Def_block_arg (block, 0) -> (
      match Core.block_parent_op block with
      | Some for_op when A.is_for for_op -> A.for_trip_count for_op
      | _ -> None)
  | _ -> None
