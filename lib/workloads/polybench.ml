let spf = Printf.sprintf

let mm ?(ni = 128) ?(nj = 128) ?(nk = 128) ?(name = "mm") () =
  spf
    {|void %s(float A[%d][%d], float B[%d][%d], float C[%d][%d]) {
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      for (int k = 0; k < %d; ++k)
        C[i][j] += A[i][k] * B[k][j];
}
|}
    name ni nk nk nj ni nj ni nj nk

let gemm ?(ni = 128) ?(nj = 128) ?(nk = 128) ?(name = "gemm") () =
  spf
    {|void %s(float A[%d][%d], float B[%d][%d], float C[%d][%d]) {
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j) {
      C[i][j] = 0.0;
      for (int k = 0; k < %d; ++k)
        C[i][j] += A[i][k] * B[k][j];
    }
}
|}
    name ni nk nk nj ni nj ni nj nk

let two_mm ?(ni = 96) ?(nj = 96) ?(nk = 96) ?(nl = 96) () =
  spf
    {|void two_mm(float A[%d][%d], float B[%d][%d], float C[%d][%d], float D[%d][%d]) {
  float T[%d][%d];
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j) {
      T[i][j] = 0.0;
      for (int k = 0; k < %d; ++k)
        T[i][j] += A[i][k] * B[k][j];
    }
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      for (int k = 0; k < %d; ++k)
        D[i][j] += T[i][k] * C[k][j];
}
|}
    ni nk nk nj nj nl ni nl ni nj ni nj nk ni nl nj

let three_mm ?(ni = 96) ?(nj = 96) ?(nk = 96) ?(nl = 96) ?(nm = 96) () =
  spf
    {|void three_mm(float A[%d][%d], float B[%d][%d], float C[%d][%d], float D[%d][%d], float G[%d][%d]) {
  float E[%d][%d];
  float F[%d][%d];
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j) {
      E[i][j] = 0.0;
      for (int k = 0; k < %d; ++k)
        E[i][j] += A[i][k] * B[k][j];
    }
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j) {
      F[i][j] = 0.0;
      for (int k = 0; k < %d; ++k)
        F[i][j] += C[i][k] * D[k][j];
    }
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      for (int k = 0; k < %d; ++k)
        G[i][j] += E[i][k] * F[k][j];
}
|}
    ni nk nk nj nj nm nm nl ni nl ni nj nj nm ni nj nk nj nl nm ni nl nj

let darknet_gemm ?(m = 128) ?(n = 128) ?(k = 128) () =
  (* Darknet's gemm_nn: linearized row-major buffers with explicit
     lda/ldb/ldc strides baked into rank-1 subscripts. *)
  spf
    {|void darknet_gemm(float A[%d], float B[%d], float C[%d]) {
  for (int i = 0; i < %d; ++i)
    for (int kk = 0; kk < %d; ++kk)
      for (int j = 0; j < %d; ++j)
        C[i*%d + j] += A[i*%d + kk] * B[kk*%d + j];
}
|}
    (m * k) (k * n) (m * n) m k n n k n

let atax ?(m = 256) ?(n = 256) () =
  spf
    {|void atax(float A[%d][%d], float x[%d], float y[%d]) {
  float tmp[%d];
  for (int j = 0; j < %d; ++j)
    y[j] = 0.0;
  for (int i = 0; i < %d; ++i) {
    tmp[i] = 0.0;
    for (int j = 0; j < %d; ++j)
      tmp[i] += A[i][j] * x[j];
  }
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      y[j] += A[i][j] * tmp[i];
}
|}
    m n n n m n m n m n

let bicg ?(m = 256) ?(n = 256) () =
  spf
    {|void bicg(float A[%d][%d], float p[%d], float r[%d], float q[%d], float s[%d]) {
  for (int j = 0; j < %d; ++j)
    s[j] = 0.0;
  for (int i = 0; i < %d; ++i) {
    q[i] = 0.0;
    for (int j = 0; j < %d; ++j)
      q[i] += A[i][j] * p[j];
  }
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      s[j] += A[i][j] * r[i];
}
|}
    n m m n n m m n m n m

let mvt ?(n = 256) () =
  spf
    {|void mvt(float A[%d][%d], float x1[%d], float x2[%d], float y1[%d], float y2[%d]) {
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      x1[i] += A[i][j] * y1[j];
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      x2[j] += A[i][j] * y2[i];
}
|}
    n n n n n n n n n n

let gesummv ?(n = 256) () =
  spf
    {|void gesummv(float A[%d][%d], float B[%d][%d], float x[%d], float y[%d]) {
  float tmp[%d];
  for (int i = 0; i < %d; ++i) {
    tmp[i] = 0.0;
    y[i] = 0.0;
    for (int j = 0; j < %d; ++j)
      tmp[i] += A[i][j] * x[j];
    for (int j = 0; j < %d; ++j)
      y[i] += B[i][j] * x[j];
    y[i] = tmp[i] + y[i];
  }
}
|}
    n n n n n n n n n n

let gemver ?(n = 256) () =
  spf
    {|void gemver(float A[%d][%d], float u1[%d], float v1[%d], float u2[%d], float v2[%d], float w[%d], float x[%d], float y[%d], float z[%d]) {
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      A[i][j] = A[i][j] + u1[i] * v1[j] + u2[i] * v2[j];
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      x[i] += A[j][i] * y[j];
  for (int i = 0; i < %d; ++i)
    x[i] = x[i] + z[i];
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      w[i] += A[i][j] * x[j];
}
|}
    n n n n n n n n n n n n n n n n n

let conv2d_nchw ?(n = 1) ?(c = 8) ?(h = 36) ?(w = 36) ?(f = 8) ?(kh = 5)
    ?(kw = 5) () =
  let oh = h - kh + 1 and ow = w - kw + 1 in
  spf
    {|void conv2d_nchw(float I[%d][%d][%d][%d], float W[%d][%d][%d][%d], float O[%d][%d][%d][%d]) {
  for (int nn = 0; nn < %d; ++nn)
    for (int ff = 0; ff < %d; ++ff)
      for (int oh = 0; oh < %d; ++oh)
        for (int ow = 0; ow < %d; ++ow)
          for (int cc = 0; cc < %d; ++cc)
            for (int r = 0; r < %d; ++r)
              for (int s = 0; s < %d; ++s)
                O[nn][ff][oh][ow] += I[nn][cc][oh + r][ow + s] * W[ff][cc][r][s];
}
|}
    n c h w f c kh kw n f oh ow n f oh ow c kh kw

let syrk_like ?(n = 32) ?(k = 32) () =
  spf
    {|void syrk(float A[%d][%d], float C[%d][%d]) {
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      for (int kk = 0; kk < %d; ++kk)
        C[i][j] += A[i][kk] * A[j][kk];
}
|}
    n k n n n n k

let trmm_like ?(n = 32) () =
  spf
    {|void trmm(float A[%d][%d], float B[%d][%d]) {
  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j)
      for (int k = 0; k < %d; ++k)
        B[i][j] += A[i][k] * B[k][j];
}
|}
    n n n n n n n

let doitgen ?(r = 8) ?(q = 8) ?(p = 8) () =
  spf
    {|void doitgen(float A[%d][%d][%d], float C4[%d][%d], float sum[%d]) {
  for (int rr = 0; rr < %d; ++rr)
    for (int qq = 0; qq < %d; ++qq) {
      for (int pp = 0; pp < %d; ++pp) {
        sum[pp] = 0.0;
        for (int s = 0; s < %d; ++s)
          sum[pp] += A[rr][qq][s] * C4[s][pp];
      }
      for (int pp = 0; pp < %d; ++pp)
        A[rr][qq][pp] = sum[pp];
    }
}
|}
    r q p p p p r q p p p

let matrix_chain dims =
  let dims = Array.of_list dims in
  let n = Array.length dims - 1 in
  if n < 2 then invalid_arg "matrix_chain: need at least two matrices";
  let buf = Buffer.create 1024 in
  let params =
    List.init n (fun i ->
        spf "float A%d[%d][%d]" (i + 1) dims.(i) dims.(i + 1))
    @ [ spf "float R[%d][%d]" dims.(0) dims.(n) ]
  in
  Buffer.add_string buf
    (spf "void chain(%s) {\n" (String.concat ", " params));
  (* Temporaries T2 .. T{n-1}: T_i = A1 x ... x A_i. *)
  for i = 2 to n - 1 do
    Buffer.add_string buf (spf "  float T%d[%d][%d];\n" i dims.(0) dims.(i))
  done;
  let emit_mm ~a ~b ~c ~m ~k ~nn =
    Buffer.add_string buf
      (spf
         {|  for (int i = 0; i < %d; ++i)
    for (int j = 0; j < %d; ++j) {
      %s[i][j] = 0.0;
      for (int k = 0; k < %d; ++k)
        %s[i][j] += %s[i][k] * %s[k][j];
    }
|}
         m nn c k c a b)
  in
  for i = 2 to n do
    let a = if i = 2 then "A1" else spf "T%d" (i - 1) in
    let b = spf "A%d" i in
    let c = if i = n then "R" else spf "T%d" i in
    emit_mm ~a ~b ~c ~m:dims.(0) ~k:dims.(i - 1) ~nn:dims.(i)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let tiny_suite () =
  let n = 8 in
  [
    ("atax", atax ~m:n ~n ());
    ("bicg", bicg ~m:n ~n ());
    ("gemver", gemver ~n ());
    ("gesummv", gesummv ~n ());
    ("mvt", mvt ~n ());
    ("2mm", two_mm ~ni:n ~nj:n ~nk:n ~nl:n ());
    ("3mm", three_mm ~ni:n ~nj:n ~nk:n ~nl:n ~nm:n ());
    ("gemm", gemm ~ni:n ~nj:n ~nk:n ());
    ("conv2d-nchw", conv2d_nchw ~n:1 ~c:2 ~h:10 ~w:10 ~f:2 ~kh:3 ~kw:3 ());
  ]
  @ List.map
      (fun (name, spec, sizes) ->
        let sizes = List.map (fun (c, _) -> (c, 5)) sizes in
        (name, Contraction_spec.c_source spec ~sizes ~name:"contraction" ()))
      (Contraction_spec.paper_benchmarks ())

let figure9_suite () =
  let f2 = float_of_int in
  let lvl2 = 256 and mmn = 96 and gsz = 128 in
  let conv_flops =
    let n = 1 and c = 8 and f = 8 and kh = 5 and kw = 5 in
    let oh = 32 and ow = 32 in
    2. *. f2 (n * f * oh * ow * c * kh * kw)
  in
  [
    ("atax", atax ~m:lvl2 ~n:lvl2 (), 4. *. f2 (lvl2 * lvl2));
    ("bicg", bicg ~m:lvl2 ~n:lvl2 (), 4. *. f2 (lvl2 * lvl2));
    ("gemver", gemver ~n:lvl2 (), 8. *. f2 (lvl2 * lvl2));
    ("gesummv", gesummv ~n:lvl2 (), 4. *. f2 (lvl2 * lvl2));
    ("mvt", mvt ~n:lvl2 (), 4. *. f2 (lvl2 * lvl2));
    ("2mm", two_mm ~ni:mmn ~nj:mmn ~nk:mmn ~nl:mmn (), 4. *. f2 (mmn * mmn * mmn));
    ( "3mm",
      three_mm ~ni:mmn ~nj:mmn ~nk:mmn ~nl:mmn ~nm:mmn (),
      6. *. f2 (mmn * mmn * mmn) );
    ("gemm", gemm ~ni:gsz ~nj:gsz ~nk:gsz (), 2. *. f2 (gsz * gsz * gsz));
    ("conv2d-nchw", conv2d_nchw (), conv_flops)
  ]
  @ List.map
      (fun (name, spec, sizes) ->
        ( name,
          Contraction_spec.c_source spec ~sizes ~name:"contraction" (),
          Contraction_spec.flops spec ~sizes ))
      (Contraction_spec.paper_benchmarks ())
