open Ir

let names =
  [
    "blas.sgemm";
    "blas.sgemv";
    "blas.stranspose";
    "blas.sreshape_copy";
    "blas.sconv2d";
  ]

let is_blas (op : Core.op) = List.mem op.o_name names

let verifier = function
  | "blas.stranspose" -> Linalg.Linalg_ops.verify_transpose
  | "blas.sreshape_copy" -> Linalg.Linalg_ops.verify_reshape
  | _ -> Structured.verify

let () =
  Dialect.register_all
    (List.map
       (fun n ->
         Dialect.def ~verify:(verifier n) ~summary:"vendor library call" n)
       names)

let call3 name b x y z =
  Builder.build b ~operands:[ x; y; z ] name

let sgemm b = call3 "blas.sgemm" b
let sgemv b = call3 "blas.sgemv" b
let sconv2d b = call3 "blas.sconv2d" b

let stranspose b ~perm input output =
  Builder.build b ~operands:[ input; output ]
    ~attrs:[ ("permutation", Attr.Ints (Array.to_list perm)) ]
    "blas.stranspose"

let sreshape_copy b ~grouping input output =
  Builder.build b ~operands:[ input; output ]
    ~attrs:[ ("grouping", Attr.Grouping grouping) ]
    "blas.sreshape_copy"
