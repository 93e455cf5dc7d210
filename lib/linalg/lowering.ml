open Ir
module A = Affine.Affine_ops
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

let lower_reshape b src dst =
  (* Contiguous row-major relayout: iterate the output space; the input
     subscripts delinearize the shared row-major offset. *)
  let out_shape = shape_of dst and in_shape = shape_of src in
  let in_shape_a = Array.of_list in_shape in
  let out_strides = Affine_expr.row_major_strides (Array.of_list out_shape) in
  let in_strides = Affine_expr.row_major_strides in_shape_a in
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
let lower_contract b op maps operands =
  match (maps, operands) with
  | [ m1; m2; mo ], [| in1; in2; out |] ->
      build_nest b (Array.to_list (Structured.dims op)) (fun b ivs ->
          let out_at = access mo ivs in
          let o = A.load b out out_at in
          let x = A.load b in1 (access m1 ivs) in
          let y = A.load b in2 (access m2 ivs) in
          let s = Arith.addf b o (Arith.mulf b x y) in
          ignore (A.store b s out out_at))
  | _ -> D.errorf "lower-linalg: %s is not a contraction" op.Core.o_name

let lower_fill b value c =
  build_nest b (shape_of c) (fun b ivs ->
      let v = Arith.constant_float b value in
      ignore (A.store_simple b v c ivs))

let lower b (op : Core.op) operands =
  match (op.o_name, Structured.maps op) with
  | ("linalg.transpose" | "blas.stranspose"), _ ->
      lower_transpose b ~perm:(Linalg_ops.transpose_perm op) operands.(0)
        operands.(1);
      true
  | "linalg.reshape", _ ->
      lower_reshape b operands.(0) operands.(1);
      true
  | "linalg.fill", _ ->
      lower_fill b (Attr.get_float (Core.attr op "value")) operands.(0);
      true
  | _, Some maps ->
      lower_contract b op maps operands;
      true
  | _, None -> false
