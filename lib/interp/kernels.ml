let matmul a b c =
  let m = c.Buffer.shape.(0) and n = c.Buffer.shape.(1) in
  let k = a.Buffer.shape.(1) in
  if
    a.Buffer.shape.(0) <> m || b.Buffer.shape.(0) <> k
    || b.Buffer.shape.(1) <> n
  then invalid_arg "Kernels.matmul: shape mismatch";
  let ad = a.Buffer.data and bd = b.Buffer.data and cd = c.Buffer.data in
  for i = 0 to m - 1 do
    for kk = 0 to k - 1 do
      let aik = ad.((i * k) + kk) in
      if aik <> 0. then
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
      invalid_arg "Kernels.matvec^T: shape mismatch";
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        yd.(j) <- yd.(j) +. (ad.((i * n) + j) *. xd.(i))
      done
    done
  end
  else begin
    if x.Buffer.shape.(0) <> n || y.Buffer.shape.(0) <> m then
      invalid_arg "Kernels.matvec: shape mismatch";
    for i = 0 to m - 1 do
      let acc = ref 0. in
      for j = 0 to n - 1 do
        acc := !acc +. (ad.((i * n) + j) *. xd.(j))
      done;
      yd.(i) <- yd.(i) +. !acc
    done
  end

let transpose ~perm src dst =
  if Linalg.Linalg_ops.transposed_shape perm (Array.to_list src.Buffer.shape)
     <> Array.to_list dst.Buffer.shape
  then invalid_arg "Kernels.transpose: shape mismatch";
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
    invalid_arg "Kernels.reshape_copy: element count mismatch";
  Array.blit src.Buffer.data 0 dst.Buffer.data 0 (Buffer.num_elements src)

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
  | _ -> invalid_arg "Kernels.conv2d_nchw: shape mismatch"

let contract ~loc ~maps ~dims a b c =
  match maps with
  | [ ma; mb; mc ] ->
      (* Stage the subscripts once over the iteration point [idx]; each
         point then costs one closure application per subscript into
         reused index arrays instead of three map evaluations allocating
         fresh result arrays. *)
      let idx = Array.make (Array.length dims) 0 in
      let stage (m : Ir.Affine_map.t) =
        Array.of_list
          (List.map
             (Affine.Stage.expr ~who:"interp" ~loc ~what:"linalg.contract"
                (Array.init (Array.length dims) Fun.id))
             m.exprs)
      in
      let ca = stage ma and cb = stage mb and cc = stage mc in
      let ia = Array.make (Array.length ca) 0
      and ib = Array.make (Array.length cb) 0
      and ic = Array.make (Array.length cc) 0 in
      let apply cs out =
        for r = 0 to Array.length cs - 1 do
          out.(r) <- cs.(r) idx
        done
      in
      let rec go d =
        if d = Array.length dims then begin
          apply ca ia;
          apply cb ib;
          apply cc ic;
          Buffer.set c ic
            (Buffer.get c ic +. (Buffer.get a ia *. Buffer.get b ib))
        end
        else
          for i = 0 to dims.(d) - 1 do
            idx.(d) <- i;
            go (d + 1)
          done
      in
      go 0
  | _ -> invalid_arg "Kernels.contract: expected three maps"

let fill v b = Buffer.fill b v

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
      let dims = Ir.Structured.dims op and loc = Ir.Core.nearest_loc op in
      Some (fun b -> contract ~loc ~maps ~dims b.(0) b.(1) b.(2))
  | "linalg.fill" ->
      let v = Ir.Attr.get_float (Ir.Core.attr op "value") in
      Some (fun b -> fill v b.(0))
  | _ -> None
