open Ir

let error_at op fmt = Support.Diag.errorf ~loc:(Core.nearest_loc op) fmt

let floordivsi op x y =
  if y = 0 then error_at op "interp: division by zero"
  else Affine_expr.floordiv x y

let remsi op x y =
  if y = 0 then error_at op "interp: remainder by zero"
  else Affine_expr.floormod x y

let check_loop_shape (op : Core.op) =
  let body = Core.single_block op 0 in
  if Core.num_results op > 0 || Array.length body.Core.b_args <> 1 then
    error_at op
      "interp: %s with loop-carried iter_args (loop results or extra block \
       arguments) is unsupported; rewrite the loop to accumulate through \
       memory"
      op.Core.o_name;
  body

let validate_args (f : Core.op) (args : Buffer.t list) =
  if not (Core.is_func f) then invalid_arg "Interp.run_func: not a func.func";
  let params = Core.func_args f in
  if List.length params <> List.length args then
    error_at f "interp: %s expects %d arguments, got %d" (Core.func_name f)
      (List.length params) (List.length args);
  List.iter2
    (fun (p : Core.value) (buf : Buffer.t) ->
      match Typ.static_shape p.v_typ with
      | Some shape when shape = Array.to_list buf.Buffer.shape -> ()
      | Some _ ->
          error_at f "interp: argument shape mismatch for %s"
            (Printer.debug_value p)
      | None -> error_at f "interp: dynamic argument shapes unsupported")
    params args

let index_error op (b : Buffer.t) dim x =
  error_at op "interp: %s index %d out of bounds [0, %d) at dim %d"
    op.Core.o_name x b.shape.(dim) dim
