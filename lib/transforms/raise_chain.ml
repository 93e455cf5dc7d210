open Ir
module L = Linalg.Linalg_ops
module A = Affine.Affine_ops
module D = Support.Diag

let rec writes_buffer (op : Core.op) (v : Core.value) =
  match op.o_name with
  | "affine.store" -> Core.value_equal (A.access_memref op) v
  | "memref.store" -> Core.value_equal (Core.operand op 1) v
  | "affine.for" | "scf.for" ->
      (* A loop writes v if anything inside does. *)
      let found = ref false in
      Core.walk op (fun inner ->
          if inner != op && writes_buffer inner v then found := true);
      !found
  | _ -> (
      match Structured.destination op with
      | Some out -> Core.value_equal out v
      | None -> false)

let last_writer ~anchor (v : Core.value) =
  match anchor.Core.o_parent with
  | None -> None
  | Some block ->
      let rec scan best = function
        | [] -> best
        | o :: rest ->
            if Core.op_equal o anchor then best
            else scan (if writes_buffer o v then Some o else best) rest
      in
      scan None (Core.ops_of_block block)

type chain = {
  matmuls : Core.op list;
  inputs : Core.value list;
  output : Core.value;
  temp_fills : Core.op list;
}

let is_zero_fill (op : Core.op) =
  L.is_fill op && Attr.get_float (Core.attr op "value") = 0.

(* A buffer qualifies as a chain intermediate when it is a local alloc,
   zero-filled, and used exactly by {fill, producer, consumer}. *)
let qualifying_temp func (v : Core.value) ~producer ~consumer =
  match Core.defining_op v with
  | Some alloc when Std_dialect.Memref_ops.is_alloc alloc ->
      let users = List.map fst (Core.uses func v) in
      let fills = List.filter is_zero_fill users in
      (match fills with
      | [ fill ] ->
          let ok =
            List.length users = 3
            && List.exists (Core.op_equal producer) users
            && List.exists (Core.op_equal consumer) users
            && (* the fill must precede the producer *)
            match last_writer ~anchor:producer v with
            | Some w -> Core.op_equal w fill
            | None -> false
          in
          if ok then Some fill else None
      | _ -> None)
  | _ -> None

let detect func =
  let block = Core.func_entry func in
  let matmuls = List.filter L.is_matmul (Core.ops_of_block block) in
  let consumed = Hashtbl.create 8 in
  (* producer matmul id -> (consumer, fill) when linkable *)
  let links = Hashtbl.create 8 in
  List.iter
    (fun consumer ->
      let in1 = Core.operand consumer 0 in
      match last_writer ~anchor:consumer in1 with
      | Some producer when L.is_matmul producer ->
          (match
             qualifying_temp func in1 ~producer ~consumer
           with
          | Some fill ->
              Hashtbl.replace links producer.Core.o_id (consumer, fill);
              Hashtbl.replace consumed consumer.Core.o_id ()
          | None -> ())
      | _ -> ())
    matmuls;
  (* Chain heads: matmuls that are not consumers of a link. *)
  List.filter_map
    (fun head ->
      if Hashtbl.mem consumed head.Core.o_id then None
      else begin
        let rec follow acc fills m =
          match Hashtbl.find_opt links m.Core.o_id with
          | Some (consumer, fill) -> follow (consumer :: acc) (fill :: fills) consumer
          | None -> (List.rev acc, List.rev fills)
        in
        let rest, fills = follow [] [] head in
        let chain_matmuls = head :: rest in
        if List.length chain_matmuls < 2 then None
        else
          let inputs =
            Core.operand head 0
            :: List.map (fun m -> Core.operand m 1) chain_matmuls
          in
          let last = List.nth chain_matmuls (List.length chain_matmuls - 1) in
          Some
            {
              matmuls = chain_matmuls;
              inputs;
              output = Core.operand last 2;
              temp_fills = fills;
            }
      end)
    matmuls

let dims_of_chain chain =
  let shape v =
    match Typ.static_shape v.Core.v_typ with
    | Some [ a; b ] -> (a, b)
    | _ -> D.errorf "chain: inputs must be static rank-2 memrefs"
  in
  let n = List.length chain.inputs in
  let dims = Array.make (n + 1) 0 in
  List.iteri
    (fun i v ->
      let r, c = shape v in
      if i = 0 then dims.(0) <- r
      else if dims.(i) <> r then D.errorf "chain: inconsistent dimensions";
      dims.(i + 1) <- c)
    chain.inputs;
  dims

let rewrite_chain func chain =
  let dims = dims_of_chain chain in
  let optimal_tree, opt_cost = Matrix_chain.optimal dims in
  let _, cur_cost = Matrix_chain.left_assoc dims in
  if opt_cost >= cur_cost then false
  else begin
    (* Insert before the last matmul of the chain: ops between the chain's
       members (e.g. the zero-fill of the final output) keep preceding the
       replacement that writes the output. *)
    let last = List.nth chain.matmuls (List.length chain.matmuls - 1) in
    let b = Builder.before last in
    let inputs = Array.of_list chain.inputs in
    let rec emit ~is_root tree =
      match tree with
      | Matrix_chain.Leaf i -> inputs.(i)
      | Matrix_chain.Node (l, r) ->
          let lv = emit ~is_root:false l in
          let rv = emit ~is_root:false r in
          let target =
            if is_root then chain.output
            else begin
              let m, _ = Matrix_chain.shape dims l in
              let _, n = Matrix_chain.shape dims r in
              let t =
                Std_dialect.Memref_ops.alloc b ~hint:"t"
                  (Typ.memref [ m; n ] Typ.F32)
              in
              ignore (L.fill b ~value:0. t);
              t
            end
          in
          ignore (L.matmul b lv rv target);
          target
    in
    ignore (emit ~is_root:true optimal_tree);
    List.iter Core.erase_op chain.matmuls;
    List.iter Core.erase_op chain.temp_fills;
    ignore (Dce.run func);
    true
  end

(* Chain reordering as a rewrite pattern rooted at the chain's head
   matmul. Chains are re-detected at each attempt: erasures invalidate
   stored chains, so nothing may be cached across rewrites. Terminates
   because [rewrite_chain] refuses chains that are already optimally
   associated. *)
let pattern () =
  Rewriter.pattern ~name:"reorder-matmul-chain"
    ~roots:(Rewriter.Roots [ "linalg.matmul" ])
    (fun _ctx op ->
      if not (L.is_matmul op) then false
      else
        let rec enclosing_func o =
          match Core.parent_op o with
          | Some p -> if Core.is_func p then Some p else enclosing_func p
          | None -> None
        in
        match enclosing_func op with
        | None -> false
        | Some func -> (
            match
              List.find_opt
                (fun c -> Core.op_equal (List.hd c.matmuls) op)
                (detect func)
            with
            | Some chain -> rewrite_chain func chain
            | None -> false))

let frozen = Support.Once.make (fun () -> Rewriter.freeze [ pattern () ])

let reorder func = Rewriter.apply_greedily func (Support.Once.get frozen)
