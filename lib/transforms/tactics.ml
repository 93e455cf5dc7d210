open Ir
module A = Affine.Affine_ops
module Ac = Matchers.Access
module D = Support.Diag

let standard_tdl =
  {|def GEMM {
  pattern = builder C(i,j) += A(i,k) * B(k,j)
}
def MATVEC {
  pattern = builder y(i) += A(i,j) * x(j)
}
def MATVEC_T {
  pattern = builder y(j) += A(i,j) * x(i)
}
def CONV2D_NCHW {
  pattern O(n,f,x,y) += I(n,c,x+r,y+s) * W(f,c,r,s)
}
|}

let standard () = Tdl.Backend.compile_tdl standard_tdl

let contraction (spec : Workloads.Contraction_spec.t) =
  let s = Workloads.Contraction_spec.to_string spec in
  match String.split_on_char '-' s with
  | [ o; a; b ] ->
      let name = "TTGT_" ^ String.concat "_" [ o; a; b ] in
      let tdl = Tdl.Frontend.contraction_tdl ~name o a b in
      (match Tdl.Backend.compile_tdl tdl with
      | [ p ] -> p
      | _ -> D.errorf "tactics: contraction tactic compiled to many patterns")
  | _ -> assert false

let paper_contractions () =
  List.map
    (fun (_, spec, _) -> contraction spec)
    (Workloads.Contraction_spec.paper_benchmarks ())

let fill_pattern () =
  Rewriter.pattern ~name:"raise-fill"
    ~roots:(Rewriter.Roots [ "affine.for" ])
    (fun ctx op ->
      let miss stage msg =
        if Remark.enabled () then
          Remark.remark ~loc:op.Core.o_loc ~pattern:"raise-fill" ~stage
            Remark.Missed "%s" msg;
        false
      in
      match
        if A.is_for op then Some (Affine.Loops.perfect_nest op) else None
      with
      | Some loops when List.for_all A.for_normalized loops ->
          let depth = List.length loops in
          let innermost = List.nth loops (depth - 1) in
          let actx = Ac.create_ctx () in
          let phs = List.init depth (fun _ -> Ac.placeholder actx) in
          let arr = Ac.array_placeholder actx in
          let pat =
            Ac.Init_const { out = Ac.access arr (List.map Ac.p phs) }
          in
          if not (Ac.match_block actx pat (A.for_body innermost)) then
            (match Ac.last_reject actx with
            | Some Ac.Unify ->
                miss "access-unification"
                  "store found, but its subscripts do not unify with the \
                   nest's induction variables"
            | _ ->
                miss "op-chain"
                  "innermost statement is not a constant store")
          else
            let memref = Ac.array_of actx arr in
            let covered =
              match Typ.static_shape memref.Core.v_typ with
              | Some shape when List.length shape = depth ->
                  (* Full coverage: each subscript spans its dimension. *)
                  List.for_all2
                    (fun ph extent -> Ac.solution_extent actx ph = Some extent)
                    phs shape
                  (* Every nest loop is bound (no repeating outer loop). *)
                  && List.for_all
                       (fun iv ->
                         List.exists
                           (fun ph -> Core.value_equal (Ac.iv_of actx ph) iv)
                           phs)
                       (Affine.Loops.nest_ivs loops)
              | _ -> false
            in
            if not covered then
              miss "coverage"
                "the initialized region does not cover the array's full \
                 extent"
            else begin
              ignore
                (Linalg.Linalg_ops.fill ctx.Rewriter.builder
                   ~value:(Ac.const_of actx) memref);
              Core.erase_op (List.hd loops);
              true
            end
      | _ -> false)

let all () = (fill_pattern () :: standard ()) @ paper_contractions ()

(* Frozen sets are immutable and shareable across domains
   (docs/CONCURRENCY.md), so each built-in set is compiled from TDL and
   frozen once per process, not once per raising step. *)
let linalg_cell = Support.Once.make (fun () -> Rewriter.freeze (all ()))

let affine_matmul_cell =
  Support.Once.make (fun () ->
      Rewriter.freeze
        (Tdl.Backend.compile_tdl ~target:Tdl.Backend.To_affine_matmul
           Tdl.Frontend.gemm_tdl))

let linalg_set () = Support.Once.get linalg_cell
let affine_matmul_set () = Support.Once.get affine_matmul_cell
let raise_to_linalg root = Rewriter.apply_greedily root (linalg_set ())

let raise_to_affine_matmul root =
  Rewriter.apply_greedily root (affine_matmul_set ())
