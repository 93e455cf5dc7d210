open Ir
module A = Affine.Affine_ops
module E = Affine_expr

(* Emit one replica of [body_ops] at [b], with the old induction variable
   mapped to [iv + offset]. *)
let emit_replica b ~old_iv ~new_iv ~offset body_ops =
  let iv_value =
    if offset = 0 then new_iv
    else
      A.apply b
        (Affine_map.make ~n_dims:1 [ E.add (E.dim 0) (E.const offset) ])
        [ new_iv ]
  in
  let clones = Core.clone_ops body_ops in
  List.iter
    (fun op ->
      ignore (Builder.insert b op);
      Core.replace_uses op ~old_v:old_iv ~new_v:iv_value)
    clones

let unroll_loop loop ~factor =
  if factor < 2 || not (A.is_for loop) then false
  else
    match (A.for_const_bounds loop, A.for_step loop) with
    | Some (lb, ub), 1 when ub - lb >= factor ->
        let trip = ub - lb in
        let main_ub = lb + (trip / factor * factor) in
        let old_iv = A.for_iv loop in
        let body_ops = Affine.Loops.body_ops loop in
        let b = Builder.before loop in
        let hint = Option.value ~default:"i" old_iv.Core.v_hint in
        ignore
          (A.for_const b ~hint ~lb ~ub:main_ub ~step:factor (fun b iv ->
               for c = 0 to factor - 1 do
                 emit_replica b ~old_iv ~new_iv:iv ~offset:c body_ops
               done));
        if main_ub < ub then
          ignore
            (A.for_const b ~hint ~lb:main_ub ~ub (fun b iv ->
                 emit_replica b ~old_iv ~new_iv:iv ~offset:0 body_ops));
        Core.erase_op loop;
        true
    | _ -> false

let unroll_innermost root ~factor =
  let innermost =
    List.filter
      (fun loop ->
        not (List.exists A.is_for (Affine.Loops.body_ops loop)))
      (Affine.Loops.all_loops root)
  in
  List.length (List.filter (fun l -> unroll_loop l ~factor) innermost)
