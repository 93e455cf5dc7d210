(* The reference kernels: one hand-written loop per Linalg, BLAS and
   [affine.matmul] op, kept simple on purpose. The library engine runs
   these ops as their [Linalg.Lowering] nests; the tests' reference
   interpreter ([Ref_interp]) runs them here, so the differential tests
   check each lowering against an independent statement of the op.

   All follow the accumulating buffer semantics of [Linalg.Linalg_ops]
   and add each output's products to the output's value one at a time in
   the order of the op's loop nest ([Ir.Structured]'s maps, the last dim
   innermost), zeros included: [matmul] computes the bits of
   [C[i][j] += A[i][k] * B[k][j]] over ascending [k]. *)

module Buffer = Interp.Buffer

let matmul a b c =
  let m = c.Buffer.shape.(0) and n = c.Buffer.shape.(1) in
  let k = a.Buffer.shape.(1) in
  if
    a.Buffer.shape.(0) <> m || b.Buffer.shape.(0) <> k
    || b.Buffer.shape.(1) <> n
  then invalid_arg "Ref_kernels.matmul: shape mismatch";
  let ad = a.Buffer.data and bd = b.Buffer.data and cd = c.Buffer.data in
  for i = 0 to m - 1 do
    for kk = 0 to k - 1 do
      let aik = ad.((i * k) + kk) in
      for j = 0 to n - 1 do
        cd.((i * n) + j) <- cd.((i * n) + j) +. (aik *. bd.((kk * n) + j))
      done
    done
  done

let matvec ?(transpose = false) a x y =
  let m = a.Buffer.shape.(0) and n = a.Buffer.shape.(1) in
  let ad = a.Buffer.data and xd = x.Buffer.data and yd = y.Buffer.data in
  if transpose then begin
    if x.Buffer.shape.(0) <> m || y.Buffer.shape.(0) <> n then
      invalid_arg "Ref_kernels.matvec^T: shape mismatch";
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        yd.(j) <- yd.(j) +. (ad.((i * n) + j) *. xd.(i))
      done
    done
  end
  else begin
    if x.Buffer.shape.(0) <> n || y.Buffer.shape.(0) <> m then
      invalid_arg "Ref_kernels.matvec: shape mismatch";
    for i = 0 to m - 1 do
      let acc = ref yd.(i) in
      for j = 0 to n - 1 do
        acc := !acc +. (ad.((i * n) + j) *. xd.(j))
      done;
      yd.(i) <- !acc
    done
  end

let transpose ~perm src dst =
  if Linalg.Linalg_ops.transposed_shape perm (Array.to_list src.Buffer.shape)
     <> Array.to_list dst.Buffer.shape
  then invalid_arg "Ref_kernels.transpose: shape mismatch";
  ignore (Ir.Affine_map.permutation perm);
  let rank = Buffer.rank dst in
  let shape = dst.Buffer.shape and dstr = dst.Buffer.strides in
  (* dst dim d draws from src dim perm.(d), so a step along it moves the
     source by that dim's stride. *)
  let sstr = Array.map (fun p -> src.Buffer.strides.(p)) perm in
  let sd = src.Buffer.data and dd = dst.Buffer.data in
  (* Destination order, the innermost dim as one strided copy. *)
  let rec go d so o =
    if d = rank - 1 then begin
      let s = sstr.(d) in
      for i = 0 to shape.(d) - 1 do
        dd.(o + i) <- sd.(so + (i * s))
      done
    end
    else
      for i = 0 to shape.(d) - 1 do
        go (d + 1) (so + (i * sstr.(d))) (o + (i * dstr.(d)))
      done
  in
  if rank = 0 then dd.(0) <- sd.(0) else go 0 0 0

let reshape_copy src dst =
  if Buffer.num_elements src <> Buffer.num_elements dst then
    invalid_arg "Ref_kernels.reshape_copy: element count mismatch";
  Array.blit src.Buffer.data 0 dst.Buffer.data 0 (Buffer.num_elements src)

(* Each output's products in the [blas.sconv2d] maps' order: channel,
   kernel row, kernel column. *)
let conv2d_nchw i w o =
  match (i.Buffer.shape, w.Buffer.shape, o.Buffer.shape) with
  | [| n; c; h; ww |], [| f; c'; kh; kw |], [| n'; f'; oh; ow |]
    when c = c' && n = n' && f = f' && oh = h - kh + 1 && ow = ww - kw + 1 ->
      let id = i.Buffer.data and wd = w.Buffer.data and od = o.Buffer.data in
      let is = i.Buffer.strides and ws = w.Buffer.strides
      and os = o.Buffer.strides in
      (* Row-major buffers: the last dim of each has stride 1. *)
      for nn = 0 to n - 1 do
        for ff = 0 to f - 1 do
          for y = 0 to oh - 1 do
            for x = 0 to ow - 1 do
              let oo = (nn * os.(0)) + (ff * os.(1)) + (y * os.(2)) + x in
              let acc = ref od.(oo) in
              for cc = 0 to c - 1 do
                for r = 0 to kh - 1 do
                  let io = (nn * is.(0)) + (cc * is.(1)) + ((y + r) * is.(2)) + x
                  and wo = (ff * ws.(0)) + (cc * ws.(1)) + (r * ws.(2)) in
                  for s = 0 to kw - 1 do
                    acc := !acc +. (id.(io + s) *. wd.(wo + s))
                  done
                done
              done;
              od.(oo) <- !acc
            done
          done
        done
      done
  | _ -> invalid_arg "Ref_kernels.conv2d_nchw: shape mismatch"

(* [contract ~maps ~dims a b c]: the generic contraction over the
   iteration space [dims]; [maps] take each point to the operands'
   subscripts. *)
let contract ~maps ~dims a b c =
  match maps with
  | [ ma; mb; mc ] ->
      let idx = Array.make (Array.length dims) 0 in
      let rec go d =
        if d = Array.length dims then begin
          let at m = Ir.Affine_map.eval m ~dims:idx () in
          let ic = at mc in
          Buffer.set c ic (Buffer.get c ic +. (Buffer.get a (at ma) *. Buffer.get b (at mb)))
        end
        else
          for i = 0 to dims.(d) - 1 do
            idx.(d) <- i;
            go (d + 1)
          done
      in
      go 0
  | _ -> invalid_arg "Ref_kernels.contract: expected three maps"

let fill v b = Buffer.fill b v

(* [library op]: the kernel that runs [op] on its operands' buffers,
   attributes decoded once; [None] for an op that is not a Linalg, BLAS
   or [affine.matmul] op. *)
let library (op : Ir.Core.op) =
  match op.o_name with
  | "affine.matmul" | "linalg.matmul" | "blas.sgemm" ->
      Some (fun b -> matmul b.(0) b.(1) b.(2))
  | "linalg.matvec" | "blas.sgemv" ->
      let transpose = Ir.Structured.transposed op in
      Some (fun b -> matvec ~transpose b.(0) b.(1) b.(2))
  | "linalg.transpose" | "blas.stranspose" ->
      let perm = Linalg.Linalg_ops.transpose_perm op in
      Some (fun b -> transpose ~perm b.(0) b.(1))
  | "linalg.reshape" | "blas.sreshape_copy" ->
      Some (fun b -> reshape_copy b.(0) b.(1))
  | "linalg.conv2d_nchw" | "blas.sconv2d" ->
      Some (fun b -> conv2d_nchw b.(0) b.(1) b.(2))
  | "linalg.contract" ->
      let maps = Option.get (Ir.Structured.maps op) in
      let dims = Ir.Structured.dims op in
      Some (fun b -> contract ~maps ~dims b.(0) b.(1) b.(2))
  | "linalg.fill" ->
      let v = Ir.Attr.get_float (Ir.Core.attr op "value") in
      Some (fun b -> fill v b.(0))
  | _ -> None
