type value = {
  v_id : int;
  mutable v_typ : Typ.t;
  mutable v_hint : string option;
  mutable v_def : vdef;
  mutable v_uses : (op * int) list;
}

and vdef = Def_op of op * int | Def_block_arg of block * int

and op = {
  o_id : int;
  o_name : string;
  mutable o_operands : value array;
  mutable o_results : value array;
  mutable o_attrs : (string * Attr.t) list;
  o_regions : region array;
  mutable o_parent : block option;
  mutable o_loc : Support.Loc.t;
  mutable o_prov : derivation list;
}

and derivation = { dv_pattern : string; dv_locs : Support.Loc.t list }

and block = {
  b_id : int;
  mutable b_args : value array;
  mutable b_head : op list;
  mutable b_tail_rev : op list;
  mutable b_parent : region option;
}

and region = {
  r_id : int;
  mutable r_blocks : block list;
  mutable r_parent : op option;
}

let ids = Support.Id_gen.global
let fresh () = Support.Id_gen.next ids

(* ---- mutation listener -------------------------------------------------- *)

type listener = {
  on_op_inserted : op -> unit;
  on_op_erased : op -> unit;
  on_operand_update : op -> unit;
}

(* A stack of listeners, newest first; every notification reaches all of
   them. A provenance-collecting listener (installed per pattern attempt
   by the rewriter) therefore composes with the worklist driver's
   re-enqueue listener instead of shadowing it. The stack is domain-local
   (Domain.DLS): a rewrite driver on one domain never observes — or
   misses — mutations performed by a compilation on another domain. *)
let listeners_key : listener list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let notify_inserted op =
  match Domain.DLS.get listeners_key with
  | [] -> ()
  | ls -> List.iter (fun l -> l.on_op_inserted op) ls

let notify_erased op =
  match Domain.DLS.get listeners_key with
  | [] -> ()
  | ls -> List.iter (fun l -> l.on_op_erased op) ls

let notify_operand_update op =
  match Domain.DLS.get listeners_key with
  | [] -> ()
  | ls -> List.iter (fun l -> l.on_operand_update op) ls

let listener_depth () = List.length (Domain.DLS.get listeners_key)

let with_listener l f =
  let saved = Domain.DLS.get listeners_key in
  Domain.DLS.set listeners_key (l :: saved);
  Fun.protect ~finally:(fun () -> Domain.DLS.set listeners_key saved) f

(* ---- ambient source location -------------------------------------------- *)

(* Frontends scope op creation with [with_loc] so every op built for a
   statement — including ops emitted deep inside dialect builders — is
   stamped with that statement's source location. Domain-local: each
   domain's frontend scopes its own compilation. *)
let ambient_loc_key : Support.Loc.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Support.Loc.unknown)

let with_loc loc f =
  let saved = Domain.DLS.get ambient_loc_key in
  Domain.DLS.set ambient_loc_key loc;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_loc_key saved) f

(* ---- intrusive use lists ------------------------------------------------ *)

let add_use v user index = v.v_uses <- (user, index) :: v.v_uses

let remove_use v user index =
  v.v_uses <-
    List.filter (fun (o, i) -> not (o == user && i = index)) v.v_uses

(* ---- construction ------------------------------------------------------- *)

let create_op ?loc ?(operands = []) ?(result_types = []) ?(attrs = [])
    ?(regions = []) name =
  let loc =
    match loc with Some l -> l | None -> Domain.DLS.get ambient_loc_key
  in
  let op =
    {
      o_id = fresh ();
      o_name = name;
      o_operands = Array.of_list operands;
      o_results = [||];
      o_attrs = attrs;
      o_regions = Array.of_list regions;
      o_parent = None;
      o_loc = loc;
      o_prov = [];
    }
  in
  Array.iter (fun r -> r.r_parent <- Some op) op.o_regions;
  Array.iteri (fun i v -> add_use v op i) op.o_operands;
  op.o_results <-
    Array.of_list
      (List.mapi
         (fun i t ->
           {
             v_id = fresh ();
             v_typ = t;
             v_hint = None;
             v_def = Def_op (op, i);
             v_uses = [];
           })
         result_types);
  op

let create_block ?(hints = []) arg_types =
  let block =
    { b_id = fresh (); b_args = [||]; b_head = []; b_tail_rev = [];
      b_parent = None }
  in
  block.b_args <-
    Array.of_list
      (List.mapi
         (fun i t ->
           let hint = List.nth_opt hints i in
           {
             v_id = fresh ();
             v_typ = t;
             v_hint = hint;
             v_def = Def_block_arg (block, i);
             v_uses = [];
           })
         arg_types);
  block

let create_region blocks =
  let r = { r_id = fresh (); r_blocks = blocks; r_parent = None } in
  List.iter (fun b -> b.b_parent <- Some r) blocks;
  r

let result op i = op.o_results.(i)
let operand op i = op.o_operands.(i)
let num_operands op = Array.length op.o_operands
let num_results op = Array.length op.o_results

(* ---- location and provenance -------------------------------------------- *)

let op_loc op = op.o_loc
let set_loc op loc = op.o_loc <- loc

let add_derivation op dv = op.o_prov <- dv :: op.o_prov

let provenance op = op.o_prov

let find_attr op name = List.assoc_opt name op.o_attrs

let attr op name =
  match find_attr op name with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "Core.attr: %s has no attribute %S" op.o_name name)

let set_attr op name a =
  op.o_attrs <- (name, a) :: List.remove_assoc name op.o_attrs

let region op i = op.o_regions.(i)

let single_block op i =
  match (region op i).r_blocks with
  | [ b ] -> b
  | bs ->
      invalid_arg
        (Printf.sprintf "Core.single_block: %s region %d has %d blocks"
           op.o_name i (List.length bs))

(* Nothing is registered; see core.mli for why the stub stays. *)
let region_registry_size () = 0

let block_parent_op block =
  match block.b_parent with None -> None | Some r -> r.r_parent

let parent_op op =
  match op.o_parent with None -> None | Some b -> block_parent_op b

let rec nearest_loc op =
  if Support.Loc.is_known op.o_loc then op.o_loc
  else match parent_op op with Some p -> nearest_loc p | None -> op.o_loc

let rec is_under ~root op =
  op == root
  || match parent_op op with Some p -> is_under ~root p | None -> false

(* ---- block op sequences ------------------------------------------------- *)

(* A block's op sequence is [b_head @ List.rev b_tail_rev]: appends push onto
   the reversed tail in O(1) (long straight-line blocks are built one op at a
   time by the lowerings), and readers flush the tail into the head. *)

let flush_block b =
  match b.b_tail_rev with
  | [] -> ()
  | tail ->
      b.b_head <- b.b_head @ List.rev tail;
      b.b_tail_rev <- []

let ops_of_block b =
  flush_block b;
  b.b_head

let append_op block op =
  op.o_parent <- Some block;
  block.b_tail_rev <- op :: block.b_tail_rev;
  notify_inserted op

let insert_relative ~before ~anchor op =
  match anchor.o_parent with
  | None -> invalid_arg "Core.insert: anchor is detached"
  | Some block ->
      op.o_parent <- Some block;
      flush_block block;
      let rec go = function
        | [] -> invalid_arg "Core.insert: anchor not found in its block"
        | o :: rest when o == anchor ->
            if before then op :: o :: rest else o :: op :: rest
        | o :: rest -> o :: go rest
      in
      block.b_head <- go block.b_head;
      notify_inserted op

let insert_before ~anchor op = insert_relative ~before:true ~anchor op
let insert_after ~anchor op = insert_relative ~before:false ~anchor op

let detach_op op =
  match op.o_parent with
  | None -> ()
  | Some block ->
      let not_op o = not (o == op) in
      block.b_head <- List.filter not_op block.b_head;
      block.b_tail_rev <- List.filter not_op block.b_tail_rev;
      op.o_parent <- None

(* ---- traversal ---------------------------------------------------------- *)

let rec walk root f =
  f root;
  Array.iter
    (fun r ->
      List.iter
        (fun b -> List.iter (fun op -> walk op f) (ops_of_block b))
        r.r_blocks)
    root.o_regions

let rec walk_post root f =
  Array.iter
    (fun r ->
      List.iter
        (fun b -> List.iter (fun op -> walk_post op f) (ops_of_block b))
        r.r_blocks)
    root.o_regions;
  f root

let rec walk_safe root f =
  f root;
  walk_safe_children root f

and walk_safe_children root f =
  Array.iter
    (fun r ->
      List.iter
        (fun b ->
          let snapshot = ops_of_block b in
          List.iter
            (fun op ->
              (* Skip ops detached by earlier callbacks in this sweep. *)
              if op.o_parent != None then begin
                f op;
                (* [f] may have detached [op] itself (a rewrite consuming
                   the whole nest); its descendants still carry parents
                   inside the detached subtree, so re-check before
                   descending into erased IR. *)
                if op.o_parent != None then walk_safe_children op f
              end)
            snapshot)
        r.r_blocks)
    root.o_regions

(* ---- erasure ------------------------------------------------------------ *)

let erase_op op =
  notify_erased op;
  detach_op op;
  (* Structurally invalidate the whole subtree: drop its operand use-list
     entries so use counts of surviving values stay exact. *)
  walk op (fun o ->
      Array.iteri (fun i v -> remove_use v o i) o.o_operands;
      o.o_operands <- [||])

(* ---- use-def queries and mutation --------------------------------------- *)

let defining_op v =
  match v.v_def with Def_op (op, _) -> Some op | Def_block_arg _ -> None

let uses root v =
  List.rev (List.filter (fun (o, _) -> is_under ~root o) v.v_uses)

let has_uses root v = List.exists (fun (o, _) -> is_under ~root o) v.v_uses

let set_operand op i v =
  let old = op.o_operands.(i) in
  if not (old == v) then begin
    remove_use old op i;
    op.o_operands.(i) <- v;
    add_use v op i;
    notify_operand_update op
  end

let replace_uses root ~old_v ~new_v =
  if not (old_v == new_v) then
    List.iter
      (fun (o, i) -> if is_under ~root o then set_operand o i new_v)
      old_v.v_uses

let rec is_in_block ~block op =
  match op.o_parent with
  | Some b when b == block -> true
  | _ -> (
      match parent_op op with
      | Some p -> is_in_block ~block p
      | None -> false)

let replace_uses_in_block block ~old_v ~new_v =
  if not (old_v == new_v) then
    List.iter
      (fun (o, i) -> if is_in_block ~block o then set_operand o i new_v)
      old_v.v_uses

let find_op root p =
  let exception Found of op in
  try
    walk root (fun op -> if op != root && p op then raise (Found op));
    None
  with Found op -> Some op

let create_module () =
  let block = create_block [] in
  let region = create_region [ block ] in
  create_op ~regions:[ region ] "builtin.module"

let module_block m =
  if not (String.equal m.o_name "builtin.module") then
    invalid_arg "Core.module_block: not a module";
  single_block m 0

let create_func ~name ~arg_types ?arg_hints ?(result_types = []) () =
  let entry = create_block ?hints:arg_hints arg_types in
  let region = create_region [ entry ] in
  let fn_type = Typ.Fun (arg_types, result_types) in
  create_op ~regions:[ region ]
    ~attrs:[ ("sym_name", Attr.Str name); ("function_type", Attr.Type fn_type) ]
    "func.func"

let is_func op = String.equal op.o_name "func.func"

let func_name op =
  if not (is_func op) then invalid_arg "Core.func_name: not a func.func";
  Attr.get_str (attr op "sym_name")

let func_entry op =
  if not (is_func op) then invalid_arg "Core.func_entry: not a func.func";
  single_block op 0

let func_args op = Array.to_list (func_entry op).b_args

let find_func m name =
  List.find_opt
    (fun op -> is_func op && String.equal (func_name op) name)
    (ops_of_block (module_block m))

let rec clone_op_with map op =
  let remap v =
    match Hashtbl.find_opt map v.v_id with Some v' -> v' | None -> v
  in
  let regions =
    Array.to_list op.o_regions
    |> List.map (fun r ->
           let blocks =
             List.map
               (fun b ->
                 let b' =
                   create_block
                     ?hints:None
                     (Array.to_list (Array.map (fun a -> a.v_typ) b.b_args))
                 in
                 Array.iteri
                   (fun i a ->
                     b'.b_args.(i).v_hint <- a.v_hint;
                     Hashtbl.replace map a.v_id b'.b_args.(i))
                   b.b_args;
                 (b, b'))
               r.r_blocks
           in
           (* Clone block contents after all block args are mapped. *)
           List.iter
             (fun (b, b') ->
               List.iter
                 (fun child -> append_op b' (clone_op_with map child))
                 (ops_of_block b))
             blocks;
           create_region (List.map snd blocks))
  in
  let op' =
    create_op
      ~operands:(List.map remap (Array.to_list op.o_operands))
      ~result_types:(Array.to_list (Array.map (fun r -> r.v_typ) op.o_results))
      ~attrs:op.o_attrs ~regions op.o_name
  in
  op'.o_loc <- op.o_loc;
  op'.o_prov <- op.o_prov;
  Array.iteri
    (fun i r ->
      op'.o_results.(i).v_hint <- r.v_hint;
      Hashtbl.replace map r.v_id op'.o_results.(i))
    op.o_results;
  op'

let clone_op op = clone_op_with (Hashtbl.create 64) op

let clone_ops ops =
  let map = Hashtbl.create 64 in
  List.map (clone_op_with map) ops

(* One walk over both trees; [map] sends each value [a] defines to the
   one [b] defines in its place. Block arguments are mapped before any
   op of their region, results after their op, as [clone_op_with] does. *)
let structural_equal a b =
  let map = Hashtbl.create 64 in
  let bind (x : value) y = Hashtbl.replace map x.v_id y in
  let same_operand (x : value) y =
    match Hashtbl.find_opt map x.v_id with Some y' -> y' == y | None -> x == y
  in
  let same_types (xs : value array) (ys : value array) =
    Array.length xs = Array.length ys
    && Array.for_all2 (fun x y -> Typ.equal x.v_typ y.v_typ) xs ys
  in
  let rec same_attrs xs ys =
    match (xs, ys) with
    | [], [] -> true
    | (k, x) :: xs, (l, y) :: ys ->
        String.equal k l && Attr.equal x y && same_attrs xs ys
    | _ -> false
  in
  let rec same_op a b =
    String.equal a.o_name b.o_name
    && Array.length a.o_operands = Array.length b.o_operands
    && Array.for_all2 same_operand a.o_operands b.o_operands
    && same_types a.o_results b.o_results
    && same_attrs a.o_attrs b.o_attrs
    && Array.length a.o_regions = Array.length b.o_regions
    && Array.for_all2 same_region a.o_regions b.o_regions
    && (Array.iter2 bind a.o_results b.o_results;
        true)
  and same_region ra rb =
    List.equal
      (fun ba bb ->
        same_types ba.b_args bb.b_args
        && (Array.iter2 bind ba.b_args bb.b_args;
            true))
      ra.r_blocks rb.r_blocks
    && List.for_all2
         (fun ba bb -> List.equal same_op (ops_of_block ba) (ops_of_block bb))
         ra.r_blocks rb.r_blocks
  in
  a == b || same_op a b

let op_equal a b = a == b
let value_equal a b = a == b
