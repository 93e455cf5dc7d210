open Ir
module A = Affine.Affine_ops
module D = Support.Diag

type stats = {
  mutable flops_scalar : float;
  mutable flops_vector : float;
  mutable mem_cycles : float;
  mutable iterations : float;
  mutable accesses : float;
}

let empty_stats () =
  {
    flops_scalar = 0.;
    flops_vector = 0.;
    mem_cycles = 0.;
    iterations = 0.;
    accesses = 0.;
  }

type address_map = (int, int) Hashtbl.t

let elem_strides typ =
  match Typ.static_shape typ with
  | Some shape ->
      let n = List.length shape in
      let arr = Array.of_list shape in
      let strides = Array.make n 1 in
      for i = n - 2 downto 0 do
        strides.(i) <- strides.(i + 1) * arr.(i + 1)
      done;
      strides
  | None -> D.errorf "trace: dynamic memref shapes unsupported"

let assign_addresses func =
  let addrs = Hashtbl.create 16 in
  let next = ref 4096 in
  let place (v : Core.value) =
    match Typ.static_shape v.Core.v_typ with
    | Some shape ->
        let bytes = 4 * List.fold_left ( * ) 1 shape in
        Hashtbl.replace addrs v.Core.v_id !next;
        (* Line-align and pad to avoid accidental full aliasing. *)
        next := !next + ((bytes + 127) / 128 * 128) + 128
    | None -> ()
  in
  List.iter place (Core.func_args func);
  Core.walk func (fun op ->
      if Std_dialect.Memref_ops.is_alloc op then place (Core.result op 0));
  addrs

(* ---- vectorizability -------------------------------------------------- *)

let access_stride_wrt iv op = Affine.Loops.access_stride_wrt iv op

let is_vectorizable ?(fast_math = false) loop =
  A.is_for loop
  && (not (List.exists A.is_for (Affine.Loops.body_ops loop)))
  &&
  let iv = A.for_iv loop in
  let ok = ref true in
  List.iter
    (fun op ->
      if A.is_load op || A.is_store op then
        match access_stride_wrt iv op with
        | Some 1 -> ()
        | Some 0 ->
            (* A store invariant in the loop iv is a reduction; without
               -ffast-math the compiler cannot reassociate it into SIMD
               lanes. *)
            if A.is_store op && not fast_math then ok := false
        | _ -> ok := false)
    (Affine.Loops.body_ops loop);
  !ok

(* ---- compilation ------------------------------------------------------ *)

type ctx = {
  model : Machine_model.t;
  hier : Cache.hierarchy;
  addrs : address_map;
  stats : stats;
  env : int array;
  slots : (int, int) Hashtbl.t;
  mutable next_slot : int;
  fast_math : bool;
}

let slot_of ctx (v : Core.value) =
  match Hashtbl.find_opt ctx.slots v.Core.v_id with
  | Some s -> s
  | None ->
      let s = ctx.next_slot in
      if s >= Array.length ctx.env then
        D.errorf "trace: too many index values";
      ctx.next_slot <- s + 1;
      Hashtbl.replace ctx.slots v.Core.v_id s;
      s

(* ---- staged affine expressions ---------------------------------------- *)

(* What the staged evaluators cannot run is rejected here, before the
   walk: symbols, dimensions with no operand, and floordiv/mod by anything
   but a non-zero constant. *)
let check_expr what n_dims e =
  let rec go = function
    | Affine_expr.Dim i ->
        if i < 0 || i >= n_dims then
          D.errorf "trace: %s reads d%d but has %d operands" what i n_dims
    | Affine_expr.Sym _ -> D.errorf "trace: %s uses affine symbols" what
    | Affine_expr.Const _ -> ()
    | Affine_expr.Add (a, b) | Affine_expr.Mul (a, b) ->
        go a;
        go b
    | Affine_expr.Floor_div (a, b) | Affine_expr.Mod (a, b) -> (
        go a;
        match Affine_expr.is_constant b with
        | Some k when k <> 0 -> ()
        | _ -> D.errorf "trace: %s divides by a non-constant or zero" what)
  in
  go e

(* [stage ctx what slots e] evaluates [e] with dimension [d] read from
   [ctx.env.(slots.(d))]. A linear [e] becomes [b + sum k_i * env.(s_i)],
   with dedicated closures for up to three terms; floordiv/mod go through
   [Affine_expr.compile] over a gathered dimension vector. *)
let stage ctx what slots e =
  check_expr what (Array.length slots) e;
  let env = ctx.env in
  match Affine_expr.linearize e with
  | Some { Affine_expr.dim_coeffs; constant = b; _ } -> (
      match List.map (fun (d, k) -> (slots.(d), k)) dim_coeffs with
      | [] -> fun () -> b
      | [ (s0, k0) ] -> fun () -> b + (k0 * env.(s0))
      | [ (s0, k0); (s1, k1) ] ->
          fun () -> b + (k0 * env.(s0)) + (k1 * env.(s1))
      | [ (s0, k0); (s1, k1); (s2, k2) ] ->
          fun () -> b + (k0 * env.(s0)) + (k1 * env.(s1)) + (k2 * env.(s2))
      | terms ->
          let ss = Array.of_list (List.map fst terms) in
          let ks = Array.of_list (List.map snd terms) in
          fun () ->
            let acc = ref b in
            for i = 0 to Array.length ss - 1 do
              acc := !acc + (ks.(i) * env.(ss.(i)))
            done;
            !acc)
  | None ->
      let f = Affine_expr.compile e in
      let dims = Array.make (Array.length slots) 0 in
      fun () ->
        for i = 0 to Array.length slots - 1 do
          dims.(i) <- env.(slots.(i))
        done;
        f dims

(* ---- accesses --------------------------------------------------------- *)

(* Cycles charged to an L1 miss served by [level] (2-4). Unit-stride
   (prefetchable) accesses pay streaming-bandwidth cost per miss;
   non-streamed misses pay the level latency, amortized over the machine's
   memory-level parallelism. *)
let miss_cost ctx ~streamed level =
  let m = ctx.model in
  if streamed then Machine_model.stream_miss_cycles m
  else
    let raw =
      match level with
      | 2 -> m.Machine_model.lat_l2
      | 3 -> m.Machine_model.lat_l3
      | _ -> m.Machine_model.lat_mem
    in
    raw /. m.Machine_model.mlp

let innermost_enclosing_loop (op : Core.op) =
  let rec up o =
    match Core.parent_op o with
    | Some p when A.is_for p -> Some p
    | Some p -> up p
    | None -> None
  in
  up op

let is_streamed (op : Core.op) =
  match innermost_enclosing_loop op with
  | None -> false
  | Some loop -> (
      match access_stride_wrt (A.for_iv loop) op with
      | Some s -> abs s <= 2
      | None -> false)

(* The buffer base, the row-major strides and the 4-byte element size fold
   into the staged address; the miss costs, indexed by the level that hit,
   are fixed per site. An L1 hit adds nothing: its cost would be [+0.], and
   [mem_cycles] only grows from [+0.], so skipping the add leaves every
   bit as it was. *)
let compile_access ctx (op : Core.op) =
  let memref = A.access_memref op in
  let base =
    match Hashtbl.find_opt ctx.addrs memref.Core.v_id with
    | Some b -> b
    | None -> D.errorf "trace: access to a buffer with no address"
  in
  let strides = elem_strides memref.Core.v_typ in
  let exprs = (A.access_map op).Affine_map.exprs in
  if List.length exprs <> Array.length strides then
    D.errorf "trace: %s map arity does not match memref rank" op.Core.o_name;
  let slots = Array.of_list (List.map (slot_of ctx) (A.access_indices op)) in
  let addr =
    stage ctx op.Core.o_name slots
      Affine_expr.(
        add (const base)
          (mul (const 4) (row_major_offset strides exprs)))
  in
  let streamed = is_streamed op in
  let costs =
    Array.init 5 (fun level ->
        if level < 2 then 0. else miss_cost ctx ~streamed level)
  in
  let hier = ctx.hier and stats = ctx.stats in
  fun () ->
    let level = Cache.access_hierarchy hier (addr ()) in
    stats.accesses <- stats.accesses +. 1.;
    if level > 1 then stats.mem_cycles <- stats.mem_cycles +. costs.(level)

let eval_bound ctx ~minimize ((map, args) : A.bound) =
  let slots = Array.of_list (List.map (slot_of ctx) args) in
  match List.map (stage ctx "loop bound" slots) map.Affine_map.exprs with
  | [] -> D.errorf "trace: empty bound map"
  | [ f ] -> f
  | f :: rest ->
      let rest = Array.of_list rest in
      fun () ->
        let acc = ref (f ()) in
        for i = 0 to Array.length rest - 1 do
          let v = rest.(i) () in
          if (if minimize then v < !acc else v > !acc) then acc := v
        done;
        !acc

let rec compile_block ctx (ops : Core.op list) =
  (* Returns (closures, direct float-op count). *)
  let closures = ref [] in
  let flops = ref 0 in
  List.iter
    (fun (op : Core.op) ->
      match op.o_name with
      | "affine.yield" -> ()
      | "affine.for" -> closures := compile_for ctx op :: !closures
      | "affine.load" | "affine.store" ->
          closures := compile_access ctx op :: !closures
      | "arith.constant" -> (
          match Core.attr op "value" with
          | Attr.Int i ->
              let s = slot_of ctx (Core.result op 0) in
              closures := (fun () -> ctx.env.(s) <- i) :: !closures
          | _ -> ())
      | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" ->
          incr flops
      | "arith.addi" | "arith.subi" | "arith.muli" | "arith.floordivsi"
      | "arith.remsi" ->
          let f =
            match op.o_name with
            | "arith.addi" -> ( + )
            | "arith.subi" -> ( - )
            | "arith.muli" -> ( * )
            | "arith.floordivsi" -> ( / )
            | _ -> ( mod )
          in
          let a = slot_of ctx (Core.operand op 0) in
          let b = slot_of ctx (Core.operand op 1) in
          let r = slot_of ctx (Core.result op 0) in
          closures :=
            (fun () -> ctx.env.(r) <- f ctx.env.(a) ctx.env.(b)) :: !closures
      | "affine.apply" ->
          let map = Attr.get_map (Core.attr op "map") in
          let slots = Array.map (slot_of ctx) op.o_operands in
          let e =
            match map.Affine_map.exprs with
            | e :: _ -> e
            | [] -> D.errorf "trace: affine.apply with an empty map"
          in
          let f = stage ctx "affine.apply" slots e in
          let env = ctx.env and r = slot_of ctx (Core.result op 0) in
          closures := (fun () -> env.(r) <- f ()) :: !closures
      | "memref.alloc" | "memref.dealloc" -> ()
      | name -> D.errorf "trace: cannot simulate operation '%s'" name)
    ops;
  (Array.of_list (List.rev !closures), !flops)

and compile_for ctx (op : Core.op) =
  let iv_slot = slot_of ctx (A.for_iv op) in
  let lb = eval_bound ctx ~minimize:false (A.for_lb op) in
  let ub = eval_bound ctx ~minimize:true (A.for_ub op) in
  let step = A.for_step op in
  let vectorized = is_vectorizable ~fast_math:ctx.fast_math op in
  let body, direct_flops = compile_block ctx (Affine.Loops.body_ops op) in
  let fl = float_of_int direct_flops in
  (* SIMD execution retires several logical iterations per hardware loop
     iteration: amortize the per-iteration branch/IV overhead. *)
  let iter_weight = if vectorized then 0.125 else 1.0 in
  let stats = ctx.stats in
  fun () ->
    let lo = lb () and hi = ub () in
    let i = ref lo in
    while !i < hi do
      ctx.env.(iv_slot) <- !i;
      for c = 0 to Array.length body - 1 do
        body.(c) ()
      done;
      if vectorized then stats.flops_vector <- stats.flops_vector +. fl
      else stats.flops_scalar <- stats.flops_scalar +. fl;
      stats.iterations <- stats.iterations +. iter_weight;
      i := !i + step
    done

let simulate ?(fast_math = false) model hier addrs stats ops =
  let ctx =
    {
      model;
      hier;
      addrs;
      stats;
      env = Array.make 4096 0;
      slots = Hashtbl.create 64;
      next_slot = 0;
      fast_math;
    }
  in
  let closures, top_flops = compile_block ctx ops in
  stats.flops_scalar <- stats.flops_scalar +. float_of_int top_flops;
  Array.iter (fun c -> c ()) closures
