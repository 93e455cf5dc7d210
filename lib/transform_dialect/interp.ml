open Ir
module T = Transforms
module A = Affine.Affine_ops
module D = Support.Diag

(* ---- the step registry --------------------------------------------------- *)

type impl = Core.op -> Core.op -> int

let registry : (string, impl) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let register_step name impl =
  Mutex.protect registry_mutex (fun () -> Hashtbl.replace registry name impl)

let lookup_step name =
  Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt registry name)

(* ---- payload measurements (application counts) --------------------------- *)

(* The same maximal-perfect-nest discovery [Loop_tile.tile_all] performs,
   as a read-only collection — used both to count tileable nests and to
   drive the per-dimension [sizes] variant. *)
let rec collect_nests acc (op : Core.op) =
  if A.is_for op then begin
    let loops = Affine.Loops.perfect_nest op in
    if List.length loops > 1 && Affine.Loops.nest_trip_counts loops <> None
    then loops :: acc
    else if List.length loops = 1 then
      List.fold_left collect_nests acc (Affine.Loops.body_ops op)
    else acc
  end
  else
    Array.fold_left
      (fun acc (r : Core.region) ->
        List.fold_left
          (fun acc (blk : Core.block) ->
            List.fold_left collect_nests acc (Core.ops_of_block blk))
          acc r.r_blocks)
      acc op.Core.o_regions

let tileable_nests root = List.rev (collect_nests [] root)

let count_ops_named root name =
  let n = ref 0 in
  Core.walk root (fun op -> if String.equal op.Core.o_name name then incr n);
  !n

let count_linalg_ops root =
  let n = ref 0 in
  Core.walk root (fun op ->
      if String.starts_with ~prefix:"linalg." op.Core.o_name then incr n);
  !n

(* ---- built-in step implementations --------------------------------------- *)

(* [Tile [s]] must stay byte-identical to [Loop_tile.tile_all ~size:s]
   (the Pluto elaboration depends on it), so the uniform case delegates
   to it; per-dimension sizes tile each discovered nest with the sizes
   truncated/padded (with 1 = untiled) to the nest's depth. *)
let tile_impl t_op =
  let sizes = Attr.get_ints (Core.attr t_op "sizes") in
  match sizes with
  | [ size ] ->
      fun payload ->
        let n = List.length (tileable_nests payload) in
        T.Loop_tile.tile_all payload ~size;
        n
  | sizes ->
      fun payload ->
        let nests = tileable_nests payload in
        List.iter
          (fun loops ->
            let depth = List.length loops in
            let rec fit i = function
              | s :: rest when i < depth -> s :: fit (i + 1) rest
              | _ when i < depth -> List.init (depth - i) (fun _ -> 1)
              | _ -> []
            in
            T.Loop_tile.tile_nest loops ~sizes:(fit 0 sizes))
          nests;
        List.length nests

let interchange_impl _t_op payload =
  let n = T.Interchange.vectorize_func payload in
  (* Interchange of reduction loops assumes reassociation: mark the code
     fast-math so the machine model may vectorize reductions, exactly as
     [Pluto.apply]'s vectorize step does. *)
  Core.walk payload (fun op ->
      if Core.is_func op then Core.set_attr op "fast_math" (Attr.Bool true));
  n

let fuse_impl t_op =
  let h =
    match Attr.get_str (Core.attr t_op "heuristic") with
    | "nofuse" -> T.Loop_fuse.No_fuse
    | "smartfuse" -> T.Loop_fuse.Smart_fuse
    | "maxfuse" -> T.Loop_fuse.Max_fuse
    | other ->
        D.errorf ~loc:t_op.Core.o_loc
          "transform.fuse: unknown heuristic %S" other
  in
  fun payload -> T.Loop_fuse.run h payload

let unroll_impl t_op =
  let factor = Attr.get_int (Core.attr t_op "factor") in
  fun payload -> T.Loop_unroll.unroll_innermost payload ~factor

let lower_affine_impl _t_op payload =
  let n = List.length (Affine.Loops.all_loops payload) in
  T.Lower_affine.run payload;
  n

let lower_linalg_impl t_op =
  let tile_size = Option.map Attr.get_int (Core.find_attr t_op "tile_size") in
  fun payload ->
    let n = count_linalg_ops payload in
    (match tile_size with
    | Some size -> T.Lower_linalg.run_tiled ~size payload
    | None -> T.Lower_linalg.run payload);
    n

let blis_impl t_op =
  let blocking =
    {
      T.Blis_schedule.mc = Attr.get_int (Core.attr t_op "mc");
      nc = Attr.get_int (Core.attr t_op "nc");
      kc = Attr.get_int (Core.attr t_op "kc");
    }
  in
  fun payload ->
    let n = count_ops_named payload "affine.matmul" in
    T.Blis_schedule.run ~blocking payload;
    n

(* Only the SCF set is implementable from this library; [Mlt.Pipeline]
   replaces this implementation with one that also knows the tactic
   sets ("linalg", "affine-matmul"). *)
let raise_impl t_op =
  match Attr.get_str (Core.attr t_op "set") with
  | "affine" -> T.Raise_scf.run
  | other ->
      D.errorf ~loc:t_op.Core.o_loc
        "transform.raise: set %S needs the tactic library (call \
         Mlt.Pipeline.register_dialects first)"
        other

let canonicalize_impl t_op =
  let fast_math = Core.find_attr t_op "fast_math" = Some (Attr.Int 1) in
  fun payload -> T.Canonicalize.run ~fast_math payload

(* Delinearization rewrites a function's signature, so it runs once per
   function wherever the payload root sits. *)
let delinearize_impl _t_op payload =
  let n = ref 0 in
  Core.walk payload (fun op ->
      if Core.is_func op then n := !n + T.Delinearize.run op);
  !n

let builtin_registered = Atomic.make false

(* Built-ins never clobber an already-registered implementation:
   [Mlt.Pipeline] may have installed its richer [transform.raise]
   before the first compile forced this registration. *)
let register_builtin name impl =
  Mutex.protect registry_mutex (fun () ->
      if not (Hashtbl.mem registry name) then Hashtbl.add registry name impl)

let register_builtins () =
  Dialect.register_once builtin_registered (fun () ->
      Ops.register ();
      register_builtin "transform.tile" tile_impl;
      register_builtin "transform.interchange" interchange_impl;
      register_builtin "transform.fuse" fuse_impl;
      register_builtin "transform.unroll" unroll_impl;
      register_builtin "transform.lower_affine" lower_affine_impl;
      register_builtin "transform.lower_linalg" lower_linalg_impl;
      register_builtin "transform.blis_schedule" blis_impl;
      register_builtin "transform.raise" raise_impl;
      register_builtin "transform.canonicalize" canonicalize_impl;
      register_builtin "transform.delinearize" delinearize_impl;
      register_builtin "transform.dce" (fun _t_op -> T.Dce.run))

let registered_steps () =
  register_builtins ();
  List.sort compare
    (Mutex.protect registry_mutex (fun () ->
         Hashtbl.fold (fun k _ acc -> k :: acc) registry []))

(* ---- compilation and application ----------------------------------------- *)

type compiled = {
  c_name : string;
  c_loc : Support.Loc.t;
  c_apply : Core.op -> int;
}

let compile_op (op : Core.op) =
  let step = Script.step_of_op op in
  match lookup_step op.Core.o_name with
  | Some impl ->
      {
        c_name = Script.step_name step;
        c_loc = op.Core.o_loc;
        c_apply = impl op;
      }
  | None ->
      D.errorf ~loc:op.Core.o_loc
        "no interpreter registered for %s (registered: %s)" op.Core.o_name
        (String.concat ", " (registered_steps ()))

let compile script =
  register_builtins ();
  if script.Core.o_name <> "builtin.module" then
    D.errorf ~loc:script.Core.o_loc
      "a transform script must be a builtin.module (found %s)"
      script.Core.o_name;
  List.map compile_op (Core.ops_of_block (Core.module_block script))

let compile_steps steps = compile (Script.of_steps steps)

let apply_step c payload =
  Trace.span ~cat:"transform" c.c_name (fun () ->
      let n = c.c_apply payload in
      if n = 0 && Remark.enabled () then
        Remark.remark ~loc:c.c_loc ~context:"transform" Remark.Analysis
          "%s did not apply: no matching construct in the payload" c.c_name;
      n)

let pass_of_compiled c =
  Pass.make ~name:c.c_name (fun payload -> ignore (apply_step c payload))

let passes_of_steps steps = List.map pass_of_compiled (compile_steps steps)

let run script payload =
  List.iter (fun c -> ignore (apply_step c payload)) (compile script)
