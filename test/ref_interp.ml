(* The reference interpreter: a tree walker over a hash-table
   environment with per-op string dispatch, kept simple on purpose. The
   differential tests compare the library's staged engine
   ([Interp.Eval.run_func]) with it, bit for bit.

   It shares what is not engine-specific with the library:
   [Interp.Kernels.library] runs the Linalg, BLAS and [affine.matmul]
   ops, and [Interp.Rt] supplies the argument and loop-shape checks, the
   signed division semantics and the located index error, so both
   engines fail the same way at the same op. *)

open Ir
module A = Affine.Affine_ops
module B = Interp.Buffer
module Rt = Interp.Rt

let error_at = Rt.error_at

type rv = R_float of float | R_int of int | R_buf of B.t

type env = { values : (int, rv) Hashtbl.t }

let bind env (v : Core.value) rv = Hashtbl.replace env.values v.v_id rv

(* Lookups read [v] for [op], where a failure is located. *)
let lookup env op (v : Core.value) =
  match Hashtbl.find_opt env.values v.v_id with
  | Some rv -> rv
  | None ->
      error_at op "interp: value %s has no runtime binding"
        (Printer.debug_value v)

let as_int env op v =
  match lookup env op v with
  | R_int i -> i
  | _ -> error_at op "interp: expected an integer value"

let as_float env op v =
  match lookup env op v with
  | R_float f -> f
  | R_int i -> float_of_int i
  | _ -> error_at op "interp: expected a float value"

let as_buf env op v =
  match lookup env op v with
  | R_buf b -> b
  | _ -> error_at op "interp: expected a buffer value"

let walk_bound env op ~minimize ((map, args) : A.bound) =
  let dims = Array.of_list (List.map (as_int env op) args) in
  let results = Affine_map.eval map ~dims () in
  if Array.length results = 0 then
    error_at op "interp: affine.for %s bound map has no results"
      (if minimize then "upper" else "lower");
  Array.fold_left
    (if minimize then min else max)
    results.(0)
    results

(* [Buffer.linear_index]'s checks, but an index out of its dimension is
   the compiled engine's located error, not an [Invalid_argument]. *)
let linear_index op (b : B.t) idx =
  if Array.length idx <> Array.length b.shape then
    invalid_arg "Buffer: index rank mismatch";
  let o = ref 0 in
  for d = 0 to Array.length idx - 1 do
    let x = idx.(d) in
    if x < 0 || x >= b.shape.(d) then Rt.index_error op b d x;
    o := !o + (x * b.strides.(d))
  done;
  !o

let get op b idx = b.B.data.(linear_index op b idx)
let set op b idx v = b.B.data.(linear_index op b idx) <- v

let access_indices env op =
  let map = A.access_map op in
  let dims = Array.of_list (List.map (as_int env op) (A.access_indices op)) in
  Affine_map.eval map ~dims ()

let float_binop name =
  match name with
  | "arith.addf" -> ( +. )
  | "arith.subf" -> ( -. )
  | "arith.mulf" -> ( *. )
  | "arith.divf" -> ( /. )
  | _ -> assert false

let int_binop (op : Core.op) =
  match op.o_name with
  | "arith.addi" -> ( + )
  | "arith.subi" -> ( - )
  | "arith.muli" -> ( * )
  | "arith.floordivsi" -> Rt.floordivsi op
  | "arith.remsi" -> Rt.remsi op
  | _ -> assert false

let rec exec_block env (b : Core.block) =
  List.iter (exec_op env) (Core.ops_of_block b)

and exec_op env (op : Core.op) =
  match op.o_name with
  | "affine.yield" | "scf.yield" | "func.return" | "memref.dealloc" -> ()
  | "arith.constant" -> (
      match Core.attr op "value" with
      | Attr.Float f -> bind env (Core.result op 0) (R_float f)
      | Attr.Int i -> bind env (Core.result op 0) (R_int i)
      | a -> error_at op "interp: bad constant %s" (Attr.to_string a))
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" ->
      let f = float_binop op.o_name in
      bind env (Core.result op 0)
        (R_float (f (as_float env op (Core.operand op 0))
                    (as_float env op (Core.operand op 1))))
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.floordivsi"
  | "arith.remsi" ->
      let f = int_binop op in
      bind env (Core.result op 0)
        (R_int (f (as_int env op (Core.operand op 0))
                  (as_int env op (Core.operand op 1))))
  | "memref.alloc" ->
      bind env (Core.result op 0)
        (R_buf (B.of_type (Core.result op 0).v_typ))
  | "affine.for" ->
      let body = Rt.check_loop_shape op in
      let lb = walk_bound env op ~minimize:false (A.for_lb op) in
      let ub = walk_bound env op ~minimize:true (A.for_ub op) in
      let step = A.for_step op in
      if step <= 0 then error_at op "interp: affine.for with non-positive step";
      let iv = body.b_args.(0) in
      let i = ref lb in
      while !i < ub do
        bind env iv (R_int !i);
        exec_block env body;
        i := !i + step
      done
  | "scf.for" ->
      let body = Rt.check_loop_shape op in
      let lb = as_int env op (Core.operand op 0) in
      let ub = as_int env op (Core.operand op 1) in
      let step = as_int env op (Core.operand op 2) in
      if step <= 0 then error_at op "interp: scf.for with non-positive step";
      let iv = body.b_args.(0) in
      let i = ref lb in
      while !i < ub do
        bind env iv (R_int !i);
        exec_block env body;
        i := !i + step
      done
  | "memref.load" ->
      let buf = as_buf env op (Core.operand op 0) in
      let idx =
        Array.init
          (Array.length op.o_operands - 1)
          (fun i -> as_int env op (Core.operand op (i + 1)))
      in
      bind env (Core.result op 0) (R_float (get op buf idx))
  | "memref.store" ->
      let buf = as_buf env op (Core.operand op 1) in
      let idx =
        Array.init
          (Array.length op.o_operands - 2)
          (fun i -> as_int env op (Core.operand op (i + 2)))
      in
      set op buf idx (as_float env op (Core.operand op 0))
  | "affine.load" ->
      let buf = as_buf env op (A.access_memref op) in
      bind env (Core.result op 0)
        (R_float (get op buf (access_indices env op)))
  | "affine.store" ->
      let buf = as_buf env op (A.access_memref op) in
      set op buf (access_indices env op) (as_float env op (A.stored_value op))
  | "affine.apply" ->
      let map = Attr.get_map (Core.attr op "map") in
      let dims =
        Array.of_list
          (List.map (as_int env op) (Array.to_list op.o_operands))
      in
      bind env (Core.result op 0) (R_int (Affine_map.eval map ~dims ()).(0))
  | name -> (
      match Interp.Kernels.library op with
      | Some run -> run (Array.map (as_buf env op) op.o_operands)
      | None -> error_at op "interp: unsupported operation '%s'" name)

(* [run_func f args] runs [f] over [args], mutated in place. *)
let run_func f args =
  Rt.validate_args f args;
  let env = { values = Hashtbl.create 256 } in
  List.iter2 (fun (p : Core.value) buf -> bind env p (R_buf buf))
    (Core.func_args f) args;
  exec_block env (Core.func_entry f)

(* The library's battery: argument [i] filled from [seed + i]. *)
let run_on_random m name ~seed =
  let f = Option.get (Core.find_func m name) in
  let args =
    List.mapi
      (fun i (p : Core.value) ->
        let b = B.of_type p.v_typ in
        B.randomize ~seed:(seed + i) b;
        b)
      (Core.func_args f)
  in
  run_func f args;
  args

(* The reference and the library engine, named for messages. *)
let engines = [ ("reference", run_func); ("compiled", Interp.Eval.run_func) ]

(* Equal shapes and equal bits, NaN payloads and signed zeros included. *)
let same_bits (a : B.t) (b : B.t) =
  a.shape = b.shape
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.data b.data

let all_same_bits xs ys =
  List.length xs = List.length ys && List.for_all2 same_bits xs ys
