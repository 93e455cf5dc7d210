open Ir
module L = Linalg.Linalg_ops
module B = Blas.Blas_ops
module D = Support.Diag

let convert (ctx : Rewriter.ctx) (op : Core.op) =
  let b = ctx.builder in
  let operand i = Core.operand op i in
  let converted =
    match op.o_name with
    | "linalg.matmul" ->
        ignore (B.sgemm b (operand 0) (operand 1) (operand 2));
        true
    | "linalg.matvec" ->
        let call = B.sgemv b (operand 0) (operand 1) (operand 2) in
        (match Core.find_attr op "transpose" with
        | Some (Attr.Bool true) -> Core.set_attr call "transpose" (Attr.Bool true)
        | _ -> ());
        true
    | "linalg.transpose" ->
        ignore (B.stranspose b ~perm:(L.transpose_perm op) (operand 0) (operand 1));
        true
    | "linalg.reshape" ->
        ignore
          (B.sreshape_copy b ~grouping:(L.reshape_grouping op) (operand 0)
             (operand 1));
        true
    | "linalg.conv2d_nchw" ->
        ignore (B.sconv2d b (operand 0) (operand 1) (operand 2));
        true
    | "linalg.contract" ->
        D.errorf
          "to-blas: linalg.contract has no direct library call — raise \
           through a TTGT tactic first"
    | _ -> false
  in
  if converted then Core.erase_op op;
  converted

let patterns () =
  [
    Rewriter.pattern ~name:"linalg-to-blas"
      ~roots:
        (Rewriter.Roots
           [
             "linalg.matmul";
             "linalg.matvec";
             "linalg.transpose";
             "linalg.reshape";
             "linalg.conv2d_nchw";
             (* Not convertible, but must stay a dispatch root so the
                diagnostic above still fires under indexed dispatch. *)
             "linalg.contract";
           ])
      ~generated_ops:
        [
          "blas.sgemm";
          "blas.sgemv";
          "blas.stranspose";
          "blas.sreshape_copy";
          "blas.sconv2d";
        ]
      convert;
  ]

let frozen = Rewriter.freeze (patterns ())
let run root = Rewriter.apply_sweeps root frozen
