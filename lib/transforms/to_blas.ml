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
        if Structured.transposed op then
          Core.set_attr call "transpose" (Attr.Bool true);
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
    (* linalg.contract has no library call, but stays a dispatch root so
       the diagnostic above still fires under indexed dispatch. *)
    Rewriter.pattern ~name:"linalg-to-blas"
      ~roots:(Rewriter.Roots (List.filter (( <> ) "linalg.fill") L.names))
      ~generated_ops:B.names convert;
  ]

let frozen = Rewriter.freeze (patterns ())
let run root = Rewriter.apply_sweeps root frozen
