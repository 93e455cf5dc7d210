open Ir
module A = Affine.Affine_ops
module Arith = Std_dialect.Arith
module E = Affine_expr
module D = Support.Diag

type blocking = { mc : int; nc : int; kc : int }

let default_blocking = { mc = 64; nc = 256; kc = 128 }

let shape2 (v : Core.value) =
  match Typ.static_shape v.Core.v_typ with
  | Some [ a; b ] -> (a, b)
  | _ -> D.errorf "blis-schedule: operands must be static rank-2 memrefs"

(* for iv = base to min(base + size, limit) — the panel loop shape. *)
let panel_loop b ~hint ~base ~size ~limit body =
  A.for_ b ~hint
    ~lb:(Affine_map.make ~n_dims:1 [ E.dim 0 ], [ base ])
    ~ub:
      ( Affine_map.make ~n_dims:1
          [ E.add (E.dim 0) (E.const size); E.const limit ],
        [ base ] )
    body

(* X[a - b][c - d]: the packed-panel access. *)
let rel_map =
  Affine_map.make ~n_dims:4
    [ E.sub (E.dim 0) (E.dim 1); E.sub (E.dim 2) (E.dim 3) ]

let lower_one blocking b (op : Core.op) =
  let a = Core.operand op 0
  and bm = Core.operand op 1
  and c = Core.operand op 2 in
  let m, k = shape2 a in
  let _, n = shape2 bm in
  let { mc; nc; kc } = blocking in
  (* Packed panels, sized for full blocks; edge tiles use a sub-region. *)
  let ap = Std_dialect.Memref_ops.alloc b ~hint:"Ap" (Typ.memref [ mc; kc ] Typ.F32) in
  let bp = Std_dialect.Memref_ops.alloc b ~hint:"Bp" (Typ.memref [ kc; nc ] Typ.F32) in
  ignore
    (A.for_const b ~hint:"jc" ~lb:0 ~ub:n ~step:nc (fun b jc ->
         ignore
           (A.for_const b ~hint:"pc" ~lb:0 ~ub:k ~step:kc (fun b pc ->
                (* Pack B[pc.., jc..] into Bp. *)
                ignore
                  (panel_loop b ~hint:"p" ~base:pc ~size:kc ~limit:k
                     (fun b p ->
                       ignore
                         (panel_loop b ~hint:"j" ~base:jc ~size:nc ~limit:n
                            (fun b j ->
                              let v = A.load_simple b bm [ p; j ] in
                              ignore
                                (A.store b v bp (rel_map, [ p; pc; j; jc ]))))));
                ignore
                  (A.for_const b ~hint:"ic" ~lb:0 ~ub:m ~step:mc (fun b ic ->
                       (* Pack A[ic.., pc..] into Ap. *)
                       ignore
                         (panel_loop b ~hint:"i" ~base:ic ~size:mc ~limit:m
                            (fun b i ->
                              ignore
                                (panel_loop b ~hint:"p" ~base:pc ~size:kc
                                   ~limit:k (fun b p ->
                                     let v = A.load_simple b a [ i; p ] in
                                     ignore
                                       (A.store b v ap
                                          (rel_map, [ i; ic; p; pc ]))))));
                       (* Macro kernel over the packed block. *)
                       ignore
                         (panel_loop b ~hint:"i" ~base:ic ~size:mc ~limit:m
                            (fun b i ->
                              ignore
                                (panel_loop b ~hint:"p" ~base:pc ~size:kc
                                   ~limit:k (fun b p ->
                                     ignore
                                       (panel_loop b ~hint:"j" ~base:jc
                                          ~size:nc ~limit:n (fun b j ->
                                            let c0 =
                                              A.load_simple b c [ i; j ]
                                            in
                                            let av =
                                              A.load b ap
                                                (rel_map, [ i; ic; p; pc ])
                                            in
                                            let bv =
                                              A.load b bp
                                                (rel_map, [ p; pc; j; jc ])
                                            in
                                            let s =
                                              Arith.addf b c0
                                                (Arith.mulf b av bv)
                                            in
                                            ignore
                                              (A.store_simple b s c [ i; j ])))))))))))));
  Core.erase_op op

let run ?(blocking = default_blocking) root =
  let pat =
    Rewriter.pattern ~name:"blis-schedule"
      ~roots:(Rewriter.Roots [ "affine.matmul" ])
      (fun ctx op ->
        if A.is_matmul op then begin
          lower_one blocking ctx.Rewriter.builder op;
          true
        end
        else false)
  in
  ignore (Rewriter.apply_sweeps root (Rewriter.freeze [ pat ]))
