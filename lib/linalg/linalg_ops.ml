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

let shape_of (op : Core.op) i =
  let v = Core.operand op i in
  match Typ.static_shape v.v_typ with
  | Some s -> s
  | None ->
      D.errorf "%s: operand must be a statically shaped memref, got %s"
        op.o_name (Typ.to_string v.v_typ)

let transpose_perm op =
  Array.of_list (Attr.get_ints (Core.attr op "permutation"))

let reshape_grouping op = Attr.get_grouping (Core.attr op "grouping")

let transposed_shape perm shape =
  let a = Array.of_list shape in
  Array.to_list (Array.map (fun p -> a.(p)) perm)

let verify_transpose (op : Core.op) =
  let name = op.o_name in
  if Core.num_operands op <> 2 then
    D.errorf "%s: expects input and output" name;
  let perm = transpose_perm op in
  let in_shape = shape_of op 0 and out_shape = shape_of op 1 in
  if Array.length perm <> List.length in_shape then
    D.errorf "%s: permutation rank mismatch" name;
  (try ignore (Affine_map.permutation perm)
   with Invalid_argument _ ->
     D.errorf "%s: attribute is not a permutation" name);
  if transposed_shape perm in_shape <> out_shape then
    D.errorf "%s: output shape does not match permutation" name

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
    D.errorf "%s: expects input and output" op.o_name;
  let grouping = reshape_grouping op in
  let in_shape = shape_of op 0 and out_shape = shape_of op 1 in
  let hi, lo =
    if List.length in_shape >= List.length out_shape then
      (in_shape, out_shape)
    else (out_shape, in_shape)
  in
  if not (reshape_check ~grouping hi lo) then
    D.errorf "%s: grouping %s does not take %s to %s" op.o_name
      (Attr.to_string (Attr.Grouping grouping))
      (String.concat "x" (List.map string_of_int in_shape))
      (String.concat "x" (List.map string_of_int out_shape))

let verify_fill (op : Core.op) =
  if Core.num_operands op <> 1 then D.errorf "linalg.fill: expects output";
  ignore (Attr.get_float (Core.attr op "value"))

let () =
  Dialect.register_all
    [
      Dialect.def ~verify:Structured.verify ~summary:"C += A * B"
        "linalg.matmul";
      Dialect.def ~verify:Structured.verify ~summary:"y += A * x"
        "linalg.matvec";
      Dialect.def ~verify:verify_transpose ~summary:"permute dimensions"
        "linalg.transpose";
      Dialect.def ~verify:verify_reshape
        ~summary:"collapse/expand contiguous dims" "linalg.reshape";
      Dialect.def ~verify:Structured.verify
        ~summary:"2-d convolution, NCHW" "linalg.conv2d_nchw";
      Dialect.def ~verify:Structured.verify
        ~summary:"generic Einstein contraction" "linalg.contract";
      Dialect.def ~verify:verify_fill ~summary:"broadcast a scalar"
        "linalg.fill";
    ]

let build3 name b x y z =
  Builder.build b ~operands:[ x; y; z ] name

let matmul b = build3 "linalg.matmul" b
let matvec b = build3 "linalg.matvec" b
let conv2d_nchw b = build3 "linalg.conv2d_nchw" b

let transpose b ~perm input output =
  Builder.build b ~operands:[ input; output ]
    ~attrs:[ ("permutation", Attr.Ints (Array.to_list perm)) ]
    "linalg.transpose"

let reshape b ~grouping input output =
  Builder.build b ~operands:[ input; output ]
    ~attrs:[ ("grouping", Attr.Grouping grouping) ]
    "linalg.reshape"

let contract b ~maps a bv c =
  Builder.build b ~operands:[ a; bv; c ]
    ~attrs:
      [ ("indexing_maps", Attr.List (List.map (fun m -> Attr.Map m) maps)) ]
    "linalg.contract"

let fill b ~value c =
  Builder.build b ~operands:[ c ] ~attrs:[ ("value", Attr.Float value) ]
    "linalg.fill"
