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

(* C(i,j) += A(i,k) * B(k,j) *)
let lower_matmul b a bm c =
  let m, k =
    match shape_of a with [ m; k ] -> (m, k) | _ -> assert false
  in
  let n = List.nth (shape_of bm) 1 in
  build_nest b [ m; n; k ] (fun b ivs ->
      match ivs with
      | [ i; j; kk ] ->
          let c0 = A.load_simple b c [ i; j ] in
          let x = A.load_simple b a [ i; kk ] in
          let y = A.load_simple b bm [ kk; j ] in
          let s = Arith.addf b c0 (Arith.mulf b x y) in
          ignore (A.store_simple b s c [ i; j ])
      | _ -> assert false)

let lower_matvec b ~transpose a x y =
  let m, n =
    match shape_of a with [ m; n ] -> (m, n) | _ -> assert false
  in
  if transpose then
    (* y(j) += A(i,j) * x(i) *)
    build_nest b [ m; n ] (fun b ivs ->
        match ivs with
        | [ i; j ] ->
            let y0 = A.load_simple b y [ j ] in
            let a0 = A.load_simple b a [ i; j ] in
            let x0 = A.load_simple b x [ i ] in
            let s = Arith.addf b y0 (Arith.mulf b a0 x0) in
            ignore (A.store_simple b s y [ j ])
        | _ -> assert false)
  else
    build_nest b [ m; n ] (fun b ivs ->
        match ivs with
        | [ i; j ] ->
            let y0 = A.load_simple b y [ i ] in
            let a0 = A.load_simple b a [ i; j ] in
            let x0 = A.load_simple b x [ j ] in
            let s = Arith.addf b y0 (Arith.mulf b a0 x0) in
            ignore (A.store_simple b s y [ i ])
        | _ -> assert false)

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

let lower_conv2d b i w o =
  match (shape_of i, shape_of w, shape_of o) with
  | [ n; c; _h; _w ], [ f; _; kh; kw ], [ _; _; oh; ow ] ->
      build_nest b [ n; f; oh; ow; c; kh; kw ] (fun b ivs ->
          match ivs with
          | [ nn; ff; y; x; cc; r; s ] ->
              let o0 = A.load_simple b o [ nn; ff; y; x ] in
              (* I[n, c, y + r, x + s] *)
              let imap =
                Affine_map.make ~n_dims:6
                  Affine_expr.
                    [ dim 0; dim 1; add (dim 2) (dim 3); add (dim 4) (dim 5) ]
              in
              let iv = A.load b i (imap, [ nn; cc; y; r; x; s ]) in
              let wv = A.load_simple b w [ ff; cc; r; s ] in
              let sum = Arith.addf b o0 (Arith.mulf b iv wv) in
              ignore (A.store_simple b sum o [ nn; ff; y; x ])
          | _ -> assert false)
  | _ -> D.errorf "lower-linalg: bad conv shapes"

let lower_contract b maps a bv c =
  let shapes = [ shape_of a; shape_of bv; shape_of c ] in
  let dims =
    (* Reuse the interpreter's inference logic, reimplemented cheaply:
       bind each bare-dim map result to the operand extent. *)
    let n_dims =
      match maps with
      | (m : Affine_map.t) :: _ -> m.n_dims
      | [] -> D.errorf "lower-linalg: contract without maps"
    in
    let dims = Array.make n_dims (-1) in
    List.iter2
      (fun (m : Affine_map.t) shape ->
        List.iteri
          (fun pos e ->
            match Affine_expr.is_single_dim e with
            | Some (1, d, 0) -> dims.(d) <- List.nth shape pos
            | _ -> ())
          m.exprs)
      maps shapes;
    Array.iter
      (fun d ->
        if d < 0 then D.errorf "lower-linalg: unconstrained contract dim")
      dims;
    dims
  in
  let ma, mb, mc =
    match maps with [ x; y; z ] -> (x, y, z) | _ -> assert false
  in
  build_nest b (Array.to_list dims) (fun b ivs ->
      let c0 = A.load b c (mc, ivs) in
      let av = A.load b a (ma, ivs) in
      let bvv = A.load b bv (mb, ivs) in
      let s = Arith.addf b c0 (Arith.mulf b av bvv) in
      ignore (A.store b s c (mc, ivs)))

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
    | "linalg.matmul" ->
        lower_matmul b (operand 0) (operand 1) (operand 2);
        true
    | "linalg.matvec" ->
        let transpose =
          match Core.find_attr op "transpose" with
          | Some (Attr.Bool t) -> t
          | _ -> false
        in
        lower_matvec b ~transpose (operand 0) (operand 1) (operand 2);
        true
    | "linalg.transpose" ->
        lower_transpose b ~perm:(L.transpose_perm op) (operand 0) (operand 1);
        true
    | "linalg.reshape" ->
        lower_reshape b (operand 0) (operand 1);
        true
    | "linalg.conv2d_nchw" ->
        lower_conv2d b (operand 0) (operand 1) (operand 2);
        true
    | "linalg.contract" ->
        lower_contract b (L.contract_maps op) (operand 0) (operand 1)
          (operand 2);
        true
    | "linalg.fill" ->
        lower_fill b (Attr.get_float (Core.attr op "value")) (operand 0);
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

let linalg_roots =
  Rewriter.Roots
    [
      "linalg.matmul";
      "linalg.matvec";
      "linalg.transpose";
      "linalg.reshape";
      "linalg.conv2d_nchw";
      "linalg.contract";
      "linalg.fill";
    ]

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
