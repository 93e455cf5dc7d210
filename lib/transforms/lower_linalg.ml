open Ir
module A = Affine.Affine_ops
module L = Linalg.Linalg_ops
module Arith = Std_dialect.Arith
module D = Support.Diag

let shape_of (v : Core.value) =
  match Typ.static_shape v.Core.v_typ with
  | Some s -> s
  | None -> D.errorf "lower-linalg: dynamic shapes unsupported"

(* Build a nest over [extents]; [body] receives the ivs outermost-first. *)
let build_nest b extents body =
  let hints = [ "i"; "j"; "k"; "l"; "m"; "n"; "o" ] in
  let rec go b ivs = function
    | [] -> body b (List.rev ivs)
    | ub :: rest ->
        let hint = List.nth_opt hints (List.length ivs) in
        ignore
          (A.for_const b ?hint ~lb:0 ~ub (fun b iv -> go b (iv :: ivs) rest))
  in
  go b [] extents

let lower_transpose b ~perm src dst =
  let out_shape = shape_of dst in
  let rank = Array.length perm in
  let inv = Affine_map.inverse_permutation perm in
  build_nest b out_shape (fun b ivs ->
      let ivs = Array.of_list ivs in
      (* src_idx.(j) = dst_idx.(inv.(j)) *)
      let src_ivs = List.init rank (fun j -> ivs.(inv.(j))) in
      let v = A.load_simple b src src_ivs in
      ignore (A.store_simple b v dst (Array.to_list ivs)))

let row_major_strides shape =
  let n = List.length shape in
  let arr = Array.of_list shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * arr.(i + 1)
  done;
  strides

let lower_reshape b src dst =
  (* Contiguous row-major relayout: iterate the output space; the input
     subscripts delinearize the shared row-major offset. *)
  let out_shape = shape_of dst and in_shape = shape_of src in
  let out_strides = row_major_strides out_shape in
  let in_strides = row_major_strides in_shape in
  let in_shape_a = Array.of_list in_shape in
  build_nest b out_shape (fun b ivs ->
      let n_out = List.length ivs in
      let linear =
        List.fold_left
          (fun (acc, d) _ ->
            ( Affine_expr.add acc
                (Affine_expr.mul
                   (Affine_expr.const out_strides.(d))
                   (Affine_expr.dim d)),
              d + 1 ))
          (Affine_expr.const 0, 0) ivs
        |> fst
      in
      let in_exprs =
        List.init (Array.length in_shape_a) (fun j ->
            Affine_expr.mod_
              (Affine_expr.floor_div linear (Affine_expr.const in_strides.(j)))
              (Affine_expr.const in_shape_a.(j)))
      in
      let map = Affine_map.make ~n_dims:n_out in_exprs in
      let v = A.load b src (map, ivs) in
      let out_map = Affine_map.identity n_out in
      ignore (A.store b v dst (out_map, ivs)))

(* [m] applied to the ivs it reads, renumbered in order of first use:
   the access the parser builds for the same printed subscripts. *)
let access m ivs =
  let ivs = Array.of_list ivs in
  let used =
    List.fold_left
      (fun acc d -> if List.mem d acc then acc else acc @ [ d ])
      [] (List.concat_map Affine_expr.used_dims m.Affine_map.exprs)
  in
  let pos d = Affine_expr.dim (Option.get (List.find_index (( = ) d) used)) in
  ( Affine_map.make ~n_dims:(List.length used)
      (List.map (Affine_expr.substitute_dims pos) m.exprs),
    List.map (fun d -> ivs.(d)) used )

(* out(m_out(d)) += in1(m_1(d)) * in2(m_2(d)), one loop per dim in order. *)
let lower_contract b op =
  match (Structured.maps op, Array.to_list op.Core.o_operands) with
  | Some [ m1; m2; mo ], [ in1; in2; out ] ->
      build_nest b (Array.to_list (Structured.dims op)) (fun b ivs ->
          let out_at = access mo ivs in
          let o = A.load b out out_at in
          let x = A.load b in1 (access m1 ivs) in
          let y = A.load b in2 (access m2 ivs) in
          let s = Arith.addf b o (Arith.mulf b x y) in
          ignore (A.store b s out out_at))
  | _ -> D.errorf "lower-linalg: %s is not a contraction" op.o_name

let lower_fill b value c =
  build_nest b (shape_of c) (fun b ivs ->
      let v = Arith.constant_float b value in
      ignore (A.store_simple b v c ivs))

let lower_op ?tile_size (ctx : Rewriter.ctx) (op : Core.op) =
  (* Track the loops this lowering creates so they can be tiled without
     touching surrounding code. *)
  let parent_block =
    match op.o_parent with
    | Some blk -> blk
    | None -> D.errorf "lower-linalg: op is detached"
  in
  let before = Core.ops_of_block parent_block in
  let b = ctx.builder in
  let operand i = Core.operand op i in
  let handled =
    match op.o_name with
    | "linalg.transpose" ->
        lower_transpose b ~perm:(L.transpose_perm op) (operand 0) (operand 1);
        true
    | "linalg.reshape" ->
        lower_reshape b (operand 0) (operand 1);
        true
    | "linalg.fill" ->
        lower_fill b (Attr.get_float (Core.attr op "value")) (operand 0);
        true
    | _ when Option.is_some (Structured.maps op) ->
        lower_contract b op;
        true
    | _ -> false
  in
  if handled then begin
    Core.erase_op op;
    match tile_size with
    | Some size ->
        let created =
          List.filter
            (fun (o : Core.op) ->
              A.is_for o && not (List.exists (Core.op_equal o) before))
            (Core.ops_of_block parent_block)
        in
        List.iter
          (fun outer ->
            let loops = Affine.Loops.perfect_nest outer in
            if
              List.length loops > 1
              && Affine.Loops.nest_trip_counts loops <> None
            then
              Loop_tile.tile_nest loops
                ~sizes:(List.map (fun _ -> size) loops))
          created
    | None -> ()
  end;
  handled

let linalg_roots = Rewriter.Roots L.names

let patterns () =
  [
    Rewriter.pattern ~name:"lower-linalg" ~roots:linalg_roots
      ~generated_ops:[ "affine.for"; "affine.load"; "affine.store" ]
      (lower_op ?tile_size:None);
  ]

let frozen = Rewriter.freeze (patterns ())
let run root = ignore (Rewriter.apply_sweeps root frozen)

let run_tiled ~size root =
  ignore
    (Rewriter.apply_sweeps root
       (Rewriter.freeze
          [
            Rewriter.pattern ~name:"lower-linalg-tiled" ~roots:linalg_roots
              ~generated_ops:[ "affine.for"; "affine.load"; "affine.store" ]
              (lower_op ~tile_size:size);
          ]))
