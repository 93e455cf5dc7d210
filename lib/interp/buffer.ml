type t = { shape : int array; strides : int array; data : float array }

let create shape =
  let shape = Array.of_list shape in
  let total = Array.fold_left ( * ) 1 shape in
  { shape; strides = Ir.Affine_expr.row_major_strides shape; data = Array.make total 0. }

let of_type t =
  match Ir.Typ.static_shape t with
  | Some shape -> create shape
  | None ->
      invalid_arg
        (Printf.sprintf "Buffer.of_type: %s is not a static memref"
           (Ir.Typ.to_string t))

let rank b = Array.length b.shape
let num_elements b = Array.length b.data

let linear_index b idx =
  if Array.length idx <> Array.length b.shape then
    invalid_arg "Buffer: index rank mismatch";
  let off = ref 0 in
  for i = 0 to Array.length idx - 1 do
    if idx.(i) < 0 || idx.(i) >= b.shape.(i) then
      invalid_arg
        (Printf.sprintf "Buffer: index %d out of bounds [0, %d) at dim %d"
           idx.(i) b.shape.(i) i);
    off := !off + (idx.(i) * b.strides.(i))
  done;
  !off

let get b idx = b.data.(linear_index b idx)
let set b idx v = b.data.(linear_index b idx) <- v

let iter_indices shape f =
  let n = Array.length shape in
  let idx = Array.make n 0 in
  let total = Array.fold_left ( * ) 1 shape in
  for _ = 1 to total do
    f idx;
    (* Increment the index vector like an odometer. *)
    let j = ref (n - 1) in
    let carry = ref true in
    while !carry && !j >= 0 do
      idx.(!j) <- idx.(!j) + 1;
      if idx.(!j) >= shape.(!j) then (
        idx.(!j) <- 0;
        decr j)
      else carry := false
    done
  done

let init shape f =
  let b = create shape in
  iter_indices b.shape (fun idx -> set b idx (f idx));
  b

let randomize ~seed b =
  let st = Random.State.make [| seed |] in
  for i = 0 to Array.length b.data - 1 do
    b.data.(i) <- Random.State.float st 1.0
  done

let copy b = { b with data = Array.copy b.data }
let fill b v = Array.fill b.data 0 (Array.length b.data) v

let max_abs_diff a b =
  if a.shape <> b.shape then invalid_arg "Buffer.max_abs_diff: shape mismatch";
  let m = ref 0. in
  for i = 0 to Array.length a.data - 1 do
    m := Float.max !m (Float.abs (a.data.(i) -. b.data.(i)))
  done;
  !m

let approx_equal ?(eps = 1e-4) a b =
  a.shape = b.shape
  &&
  let ok = ref true in
  for i = 0 to Array.length a.data - 1 do
    let x = a.data.(i) and y = b.data.(i) in
    (* Equality covers equal infinities and signed zeros, and is the
       common case, so it comes before the scale; a NaN or an infinity
       agrees with nothing else. *)
    if x <> y then begin
      let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
      let agree =
        (Float.is_nan x && Float.is_nan y)
        || Float.is_finite x && Float.is_finite y
           && Float.abs (x -. y) <= eps *. scale
      in
      if not agree then ok := false
    end
  done;
  !ok
