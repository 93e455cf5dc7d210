module D = Support.Diag
module E = Affine_expr

let transposed (op : Core.op) =
  Core.find_attr op "transpose" = Some (Attr.Bool true)

let pick n_dims results = Affine_map.minor_identity ~n_dims ~results
let matmul = [ pick 3 [ 0; 2 ]; pick 3 [ 2; 1 ]; pick 3 [ 0; 1 ] ]
let matvec = [ pick 2 [ 0; 1 ]; pick 2 [ 1 ]; pick 2 [ 0 ] ]
let matvec_t = [ pick 2 [ 0; 1 ]; pick 2 [ 0 ]; pick 2 [ 1 ] ]

let conv2d_nchw =
  [
    Affine_map.make ~n_dims:7
      E.[ dim 0; dim 4; add (dim 2) (dim 5); add (dim 3) (dim 6) ];
    pick 7 [ 1; 4; 5; 6 ];
    pick 7 [ 0; 1; 2; 3 ];
  ]

let maps (op : Core.op) =
  match op.o_name with
  | "linalg.matmul" | "blas.sgemm" | "affine.matmul" -> Some matmul
  | "linalg.matvec" | "blas.sgemv" ->
      Some (if transposed op then matvec_t else matvec)
  | "linalg.conv2d_nchw" | "blas.sconv2d" -> Some conv2d_nchw
  | "linalg.contract" ->
      Some
        (List.map Attr.get_map (Attr.get_list (Core.attr op "indexing_maps")))
  | _ -> None

(* A map result that is a bare dim binds that dim to its operand's
   extent; the others (conv's windows) bind nothing. *)
let infer ~loc who ~maps ~shapes =
  let n_dims = match maps with m :: _ -> m.Affine_map.n_dims | [] -> 0 in
  let dims = Array.make n_dims (-1) in
  List.iteri
    (fun i ((m : Affine_map.t), shape) ->
      if m.n_dims <> n_dims then
        D.errorf ~loc "%s: map %d has %d dims, not %d" who i m.n_dims n_dims;
      if Affine_map.n_results m <> Array.length shape then
        D.errorf ~loc "%s: map %d has %d results for a rank-%d operand" who
          i (Affine_map.n_results m) (Array.length shape);
      List.iteri
        (fun pos e ->
          match E.is_single_dim e with
          | Some (1, d, 0) when dims.(d) = -1 -> dims.(d) <- shape.(pos)
          | Some (1, d, 0) when dims.(d) <> shape.(pos) ->
              D.errorf ~loc "%s: dim d%d bound to both %d and %d" who d
                dims.(d) shape.(pos)
          | _ -> ())
        m.exprs)
    (List.combine maps shapes);
  Array.iteri
    (fun d e ->
      if e = -1 then D.errorf ~loc "%s: dim d%d is unconstrained" who d)
    dims;
  dims

let iteration_dims ~maps ~shapes =
  infer ~loc:Support.Loc.unknown "iteration_dims" ~maps ~shapes

let shapes (op : Core.op) =
  Array.to_list op.o_operands
  |> List.map (fun (v : Core.value) ->
         match Typ.static_shape v.v_typ with
         | Some s -> Array.of_list s
         | None ->
             D.errorf ~loc:(Core.nearest_loc op)
               "%s: operand must be a statically shaped memref, got %s"
               op.o_name (Typ.to_string v.v_typ))

let dims (op : Core.op) =
  infer ~loc:(Core.nearest_loc op) op.o_name
    ~maps:(Option.get (maps op)) ~shapes:(shapes op)

(* The values [e] takes over the iteration space [dims], as an interval:
   exact for a linear subscript, which a simplified map writes with each
   dim once. Symbols are rejected before. *)
let rec range dims (e : E.t) =
  let scale e f =
    let lo, hi = range dims e in
    (min (f lo) (f hi), max (f lo) (f hi))
  in
  match e with
  | Dim d -> (0, dims.(d) - 1)
  | Const c -> (c, c)
  | Add (a, b) ->
      let la, ha = range dims a and lb, hb = range dims b in
      (la + lb, ha + hb)
  | Mul (Const k, a) | Mul (a, Const k) -> scale a (( * ) k)
  | Floor_div (a, Const k) -> scale a (fun x -> E.floordiv x k)
  | Mod (a, Const k) ->
      let lo, hi = range dims a in
      if E.floordiv lo k = E.floordiv hi k then
        (E.floormod lo k, E.floormod hi k)
      else if k > 0 then (0, k - 1)
      else (k + 1, 0)
  | Sym _ | Mul _ | Floor_div _ | Mod _ ->
      invalid_arg ("Structured.range: " ^ E.to_string e)

let verify (op : Core.op) =
  let who = op.o_name and maps = Option.get (maps op) in
  if Core.num_operands op <> 3 || List.length maps <> 3 then
    D.errorf "%s: expects two inputs, an output and three maps" who;
  List.iteri
    (fun i (m : Affine_map.t) ->
      if m.n_syms <> 0 then D.errorf "%s: map %d takes symbols" who i)
    maps;
  let shapes = shapes op in
  let dims = infer ~loc:Support.Loc.unknown who ~maps ~shapes in
  List.iteri
    (fun i ((m : Affine_map.t), shape) ->
      List.iteri
        (fun pos e ->
          let lo, hi = range dims e in
          if lo <> 0 || hi <> shape.(pos) - 1 then
            D.errorf "%s: subscript %s of operand %d spans [%d, %d], not \
                      [0, %d]"
              who (E.to_string e) i lo hi (shape.(pos) - 1))
        m.exprs)
    (List.combine maps shapes)

let destination (op : Core.op) =
  let n = Core.num_operands op in
  if
    n > 0
    && (String.starts_with ~prefix:"linalg." op.o_name
       || String.starts_with ~prefix:"blas." op.o_name
       || String.equal op.o_name "affine.matmul")
  then Some (Core.operand op (n - 1))
  else None
