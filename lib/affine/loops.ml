open Ir

let body_ops op =
  Core.ops_of_block (Affine_ops.for_body op)
  |> List.filter (fun (o : Core.op) -> not (String.equal o.o_name "affine.yield"))

let rec perfect_nest op =
  match body_ops op with
  | [ inner ] when Affine_ops.is_for inner -> op :: perfect_nest inner
  | _ -> [ op ]

let nest_with_body op =
  let loops = perfect_nest op in
  let innermost = List.nth loops (List.length loops - 1) in
  (loops, body_ops innermost)

let nest_ivs loops = List.map Affine_ops.for_iv loops

let top_level_loops func =
  Core.ops_of_block (Core.func_entry func) |> List.filter Affine_ops.is_for

let all_loops root =
  let acc = ref [] in
  Core.walk root (fun op -> if Affine_ops.is_for op then acc := op :: !acc);
  List.rev !acc

let nest_trip_counts loops =
  List.fold_right
    (fun l acc ->
      match (Affine_ops.for_trip_count l, acc) with
      | Some n, Some tl -> Some (n :: tl)
      | _ -> None)
    loops (Some [])

let elem_strides shape =
  let n = List.length shape in
  let arr = Array.of_list shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * arr.(i + 1)
  done;
  strides

let access_stride_wrt iv (op : Core.op) =
  match Typ.static_shape (Affine_ops.access_memref op).Core.v_typ with
  | None -> None
  | Some shape ->
      let map = Affine_ops.access_map op in
      let operands = Array.of_list (Affine_ops.access_indices op) in
      let strides = elem_strides shape in
      let total = ref 0 in
      let ok = ref true in
      List.iteri
        (fun r e ->
          match Affine_expr.linearize e with
          | Some lin ->
              List.iter
                (fun (d, k) ->
                  if Core.value_equal operands.(d) iv then
                    total := !total + (k * strides.(r)))
                lin.Affine_expr.dim_coeffs
          | None ->
              if
                List.exists
                  (fun d -> Core.value_equal operands.(d) iv)
                  (Affine_expr.used_dims e)
              then ok := false)
        map.Affine_map.exprs;
      if !ok then Some !total else None

let vectorizable_wrt ?(fast_math = false) iv ops =
  List.for_all
    (fun op ->
      (not (Affine_ops.is_load op || Affine_ops.is_store op))
      ||
      match access_stride_wrt iv op with
      | Some 1 -> true
      | Some 0 -> fast_math || not (Affine_ops.is_store op)
      | _ -> false)
    ops
