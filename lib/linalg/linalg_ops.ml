open Ir
module D = Support.Diag

let names =
  [
    "linalg.matmul";
    "linalg.matvec";
    "linalg.transpose";
    "linalg.reshape";
    "linalg.conv2d_nchw";
    "linalg.contract";
    "linalg.fill";
  ]

let is_linalg (op : Core.op) = List.mem op.o_name names
let is_matmul (op : Core.op) = String.equal op.o_name "linalg.matmul"
let is_fill (op : Core.op) = String.equal op.o_name "linalg.fill"

let shape_of (v : Core.value) name =
  match Typ.static_shape v.v_typ with
  | Some s -> s
  | None ->
      D.errorf "%s: operand must be a statically shaped memref, got %s" name
        (Typ.to_string v.v_typ)

let expect_rank name v r =
  if List.length (shape_of v name) <> r then
    D.errorf "%s: expected rank-%d operand" name r

let verify_matmul (op : Core.op) =
  if Core.num_operands op <> 3 then D.errorf "linalg.matmul: expects A, B, C";
  Array.iter (fun v -> expect_rank "linalg.matmul" v 2) op.o_operands;
  match Array.to_list op.o_operands |> List.map (fun v -> shape_of v "") with
  | [ [ m; k ]; [ k'; n ]; [ m'; n' ] ] ->
      if k <> k' || m <> m' || n <> n' then
        D.errorf "linalg.matmul: dimension mismatch (%dx%d)*(%dx%d)->(%dx%d)"
          m k k' n m' n'
  | _ -> assert false

let verify_matvec (op : Core.op) =
  if Core.num_operands op <> 3 then D.errorf "linalg.matvec: expects A, x, y";
  match Array.to_list op.o_operands |> List.map (fun v -> shape_of v "linalg.matvec") with
  | [ [ m; n ]; [ n' ]; [ m' ] ] ->
      if n <> n' || m <> m' then D.errorf "linalg.matvec: dimension mismatch"
  | _ -> D.errorf "linalg.matvec: expected ranks (2, 1, 1)"

let transposed_shape perm shape =
  let a = Array.of_list shape in
  Array.to_list (Array.map (fun p -> a.(p)) perm)

let verify_transpose (op : Core.op) =
  if Core.num_operands op <> 2 then
    D.errorf "linalg.transpose: expects input and output";
  let perm =
    Array.of_list (Attr.get_ints (Core.attr op "permutation"))
  in
  let in_shape = shape_of (Core.operand op 0) "linalg.transpose" in
  let out_shape = shape_of (Core.operand op 1) "linalg.transpose" in
  if Array.length perm <> List.length in_shape then
    D.errorf "linalg.transpose: permutation rank mismatch";
  (try ignore (Affine_map.permutation perm)
   with Invalid_argument _ ->
     D.errorf "linalg.transpose: attribute is not a permutation");
  if transposed_shape perm in_shape <> out_shape then
    D.errorf "linalg.transpose: output shape does not match permutation"

let reshape_check ~grouping in_shape out_shape =
  let in_arr = Array.of_list in_shape in
  List.length grouping = List.length out_shape
  && List.concat grouping = List.init (List.length in_shape) Fun.id
  && List.for_all2
       (fun group out_dim ->
         List.fold_left (fun acc d -> acc * in_arr.(d)) 1 group = out_dim)
       grouping out_shape

let verify_reshape (op : Core.op) =
  if Core.num_operands op <> 2 then
    D.errorf "linalg.reshape: expects input and output";
  let grouping = Attr.get_grouping (Core.attr op "grouping") in
  let in_shape = shape_of (Core.operand op 0) "linalg.reshape" in
  let out_shape = shape_of (Core.operand op 1) "linalg.reshape" in
  let hi, lo =
    if List.length in_shape >= List.length out_shape then
      (in_shape, out_shape)
    else (out_shape, in_shape)
  in
  if not (reshape_check ~grouping hi lo) then
    D.errorf "linalg.reshape: grouping %s does not take %s to %s"
      (Attr.to_string (Attr.Grouping grouping))
      (String.concat "x" (List.map string_of_int in_shape))
      (String.concat "x" (List.map string_of_int out_shape))

let verify_conv2d (op : Core.op) =
  if Core.num_operands op <> 3 then
    D.errorf "linalg.conv2d_nchw: expects I, W, O";
  match
    Array.to_list op.o_operands
    |> List.map (fun v -> shape_of v "linalg.conv2d_nchw")
  with
  | [ [ n; c; h; w ]; [ f; c'; kh; kw ]; [ n'; f'; oh; ow ] ] ->
      if c <> c' || n <> n' || f <> f' then
        D.errorf "linalg.conv2d_nchw: channel/batch mismatch";
      if oh <> h - kh + 1 || ow <> w - kw + 1 then
        D.errorf "linalg.conv2d_nchw: output spatial dims must be valid (no padding)"
  | _ -> D.errorf "linalg.conv2d_nchw: expected rank-4 operands"

let verify_contract (op : Core.op) =
  if Core.num_operands op <> 3 then
    D.errorf "linalg.contract: expects two inputs and an output";
  let maps =
    Attr.get_list (Core.attr op "indexing_maps") |> List.map Attr.get_map
  in
  if List.length maps <> 3 then
    D.errorf "linalg.contract: expects three indexing maps";
  let n_dims =
    match maps with m :: _ -> m.Affine_map.n_dims | [] -> assert false
  in
  List.iteri
    (fun i (m : Affine_map.t) ->
      if m.n_dims <> n_dims then
        D.errorf "linalg.contract: map %d has inconsistent dim count" i;
      let v = Core.operand op i in
      if Affine_map.n_results m <> List.length (shape_of v "linalg.contract")
      then D.errorf "linalg.contract: map %d arity vs operand rank" i)
    maps

let verify_fill (op : Core.op) =
  if Core.num_operands op <> 1 then D.errorf "linalg.fill: expects output";
  ignore (Attr.get_float (Core.attr op "value"))

let registered =
  Support.Once.make @@ fun () ->
    Std_dialect.Memref_ops.register ();
    Dialect.register_all
      [
        Dialect.def ~verify:verify_matmul ~summary:"C += A * B" "linalg.matmul";
        Dialect.def ~verify:verify_matvec ~summary:"y += A * x" "linalg.matvec";
        Dialect.def ~verify:verify_transpose ~summary:"permute dimensions"
          "linalg.transpose";
        Dialect.def ~verify:verify_reshape
          ~summary:"collapse/expand contiguous dims" "linalg.reshape";
        Dialect.def ~verify:verify_conv2d ~summary:"2-d convolution, NCHW"
          "linalg.conv2d_nchw";
        Dialect.def ~verify:verify_contract
          ~summary:"generic Einstein contraction" "linalg.contract";
        Dialect.def ~verify:verify_fill ~summary:"broadcast a scalar"
          "linalg.fill";
      ]

let register () = Support.Once.get registered

let build3 name b x y z =
  register ();
  Builder.build b ~operands:[ x; y; z ] name

let matmul b = build3 "linalg.matmul" b
let matvec b = build3 "linalg.matvec" b
let conv2d_nchw b = build3 "linalg.conv2d_nchw" b

let transpose b ~perm input output =
  register ();
  Builder.build b ~operands:[ input; output ]
    ~attrs:[ ("permutation", Attr.Ints (Array.to_list perm)) ]
    "linalg.transpose"

let reshape b ~grouping input output =
  register ();
  Builder.build b ~operands:[ input; output ]
    ~attrs:[ ("grouping", Attr.Grouping grouping) ]
    "linalg.reshape"

let contract b ~maps a bv c =
  register ();
  Builder.build b ~operands:[ a; bv; c ]
    ~attrs:
      [ ("indexing_maps", Attr.List (List.map (fun m -> Attr.Map m) maps)) ]
    "linalg.contract"

let fill b ~value c =
  register ();
  Builder.build b ~operands:[ c ] ~attrs:[ ("value", Attr.Float value) ]
    "linalg.fill"

let transpose_perm op =
  Array.of_list (Attr.get_ints (Core.attr op "permutation"))

let reshape_grouping op = Attr.get_grouping (Core.attr op "grouping")

let contract_maps op =
  Attr.get_list (Core.attr op "indexing_maps") |> List.map Attr.get_map

let ins (op : Core.op) =
  let n = Core.num_operands op in
  Array.to_list (Array.sub op.o_operands 0 (n - 1))

let out (op : Core.op) = Core.operand op (Core.num_operands op - 1)
