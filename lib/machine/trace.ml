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

(* A value's location: its defining op's, or its block's owner's. *)
let value_loc (v : Core.value) =
  match v.Core.v_def with
  | Core.Def_op (op, _) -> Core.nearest_loc op
  | Core.Def_block_arg (b, _) -> (
      match Core.block_parent_op b with
      | Some op -> Core.nearest_loc op
      | None -> Support.Loc.unknown)

let static_shape ~loc typ =
  match Typ.static_shape typ with
  | Some shape -> Array.of_list shape
  | None -> D.errorf ~loc "trace: dynamic memref shapes unsupported"

let elem_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

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
  mutable n_accesses : int;  (** added to [stats.accesses] at the end *)
  bounds : Affine.Bounds.t;
}

let slot_of ctx (v : Core.value) =
  match Hashtbl.find_opt ctx.slots v.Core.v_id with
  | Some s -> s
  | None ->
      let s = ctx.next_slot in
      if s >= Array.length ctx.env then
        D.errorf ~loc:(value_loc v) "trace: too many index values";
      ctx.next_slot <- s + 1;
      Hashtbl.replace ctx.slots v.Core.v_id s;
      s

(* ---- staged affine expressions ---------------------------------------- *)

(* What the staged evaluators cannot run is rejected here, before the
   walk: symbols, dimensions with no operand, and floordiv/mod by anything
   but a non-zero constant. *)
let check_expr ~loc what n_dims e =
  let rec go = function
    | Affine_expr.Dim i ->
        if i < 0 || i >= n_dims then
          D.errorf ~loc "trace: %s reads d%d but has %d operands" what i
            n_dims
    | Affine_expr.Sym _ -> D.errorf ~loc "trace: %s uses affine symbols" what
    | Affine_expr.Const _ -> ()
    | Affine_expr.Add (a, b) | Affine_expr.Mul (a, b) ->
        go a;
        go b
    | Affine_expr.Floor_div (a, b) | Affine_expr.Mod (a, b) -> (
        go a;
        match Affine_expr.is_constant b with
        | Some k when k <> 0 -> ()
        | _ ->
            D.errorf ~loc "trace: %s divides by a non-constant or zero" what)
  in
  go e

(* [stage ctx ~loc what slots e] evaluates [e] with dimension [d] read from
   [ctx.env.(slots.(d))]. A linear [e] becomes [b + sum k_i * env.(s_i)],
   with dedicated closures for up to three terms; floordiv/mod go through
   [Affine_expr.compile] over a gathered dimension vector. *)
let stage ctx ~loc what slots e =
  check_expr ~loc what (Array.length slots) e;
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

(* An access site: its staged byte address, the address's linear form
   over env slots ([None] for floordiv/mod subscripts) and its miss costs
   indexed by [level - 2] for the level (2-4) that served an L1 miss.
   The buffer base, the row-major strides and the 4-byte element size
   fold into the address. *)
type site = {
  addr : unit -> int;
  slot_coeffs : (int * int) list option;
  costs : float array;
}

let access_site ctx (op : Core.op) =
  let loc = Core.nearest_loc op in
  let memref, exprs, idx = Option.get (Affine.Bounds.access op) in
  let base =
    match Hashtbl.find_opt ctx.addrs memref.Core.v_id with
    | Some b -> b
    | None -> D.errorf ~loc "trace: access to a buffer with no address"
  in
  let shape = static_shape ~loc memref.Core.v_typ in
  let strides = elem_strides shape in
  if List.length exprs <> Array.length shape then
    D.errorf ~loc "trace: %s map arity does not match memref rank"
      op.Core.o_name;
  let slots = Array.map (slot_of ctx) idx in
  let e =
    Affine_expr.(
      add (const base) (mul (const 4) (row_major_offset strides exprs)))
  in
  let addr = stage ctx ~loc op.Core.o_name slots e in
  Affine.Bounds.check_access ~who:"trace" ctx.bounds op;
  let streamed = is_streamed op in
  {
    addr;
    slot_coeffs =
      Option.map
        (fun l ->
          List.map (fun (d, k) -> (slots.(d), k)) l.Affine_expr.dim_coeffs)
        (Affine_expr.linearize e);
    costs = Array.init 3 (fun i -> miss_cost ctx ~streamed (i + 2));
  }

(* An L1 hit adds nothing: its cost would be [+0.], and [mem_cycles] only
   grows from [+0.], so skipping the add leaves every bit as it was. *)
let compile_access ctx op =
  let { addr; costs; _ } = access_site ctx op in
  let hier = ctx.hier and stats = ctx.stats in
  fun () ->
    let level = Cache.access_hierarchy hier (addr ()) in
    ctx.n_accesses <- ctx.n_accesses + 1;
    if level > 1 then
      stats.mem_cycles <- stats.mem_cycles +. costs.(level - 2)

let eval_bound ctx ~loc ~minimize ((map, args) : A.bound) =
  let slots = Array.of_list (List.map (slot_of ctx) args) in
  match List.map (stage ctx ~loc "loop bound" slots) map.Affine_map.exprs with
  | [] -> D.errorf ~loc "trace: empty bound map"
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

let is_flop (op : Core.op) =
  match op.o_name with
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" -> true
  | _ -> false

(* Float ops directly in [ops], not in nested loops. *)
let direct_flops ops = List.length (List.filter is_flop ops)

(* A straight-line body holds only accesses with linear addresses, float
   arithmetic and non-index constants: nothing in it writes an index
   value, so over one loop entry every address moves by a constant delta
   per iteration. Returns its access sites in body order, or [None]. *)
let straight_line_sites ctx ~step body_ops =
  let straight (op : Core.op) =
    match op.o_name with
    | "affine.load" | "affine.store" -> true
    | "arith.constant" -> (
        match Core.attr op "value" with Attr.Int _ -> false | _ -> true)
    | _ -> is_flop op
  in
  if step < 1 || not (List.for_all straight body_ops) then None
  else
    let sites =
      List.filter_map
        (fun op ->
          if A.is_load op || A.is_store op then Some (access_site ctx op)
          else None)
        body_ops
    in
    if List.for_all (fun s -> s.slot_coeffs <> None) sites then Some sites
    else None

(* One loop entry runs as [n] iterations of [Cache.run_strided] over the
   sites, each starting at its address for the first iteration and
   moving by its iv coefficient times [step]. The flop, iteration and
   access counts are added once per entry: [fl *. n] and
   [iter_weight *. n] equal the per-iteration sums bit for bit, since
   every partial sum is an integer or a multiple of 1/8 far below 2^53.

   An entry is replayed, not probed, when the loop's previous entry
   missed L1 nowhere, nothing probed L1 since it ended, the trip count
   is the same and every site touches the same line sequence: its first
   address is unchanged, or its first line is and its delta is a whole
   number of lines. Every access of the replay hits and leaves the
   cache as it was (Cache.run_strided's interface), so the entry only
   counts [n * sites] L1 hits. *)
let compile_strided ctx ~iv_slot ~lb ~ub ~step ~iter_weight ~vectorized ~fl
    sites =
  let iv_coeff s =
    List.fold_left
      (fun acc (slot, k) -> if slot = iv_slot then acc + k else acc)
      0 (Option.get s.slot_coeffs)
  in
  let firsts = Array.of_list (List.map (fun s -> s.addr) sites) in
  let deltas = Array.of_list (List.map (fun s -> step * iv_coeff s) sites) in
  let costs = Array.concat (List.map (fun s -> s.costs) sites) in
  let n_sites = List.length sites in
  let addrs = Array.make n_sites 0 in
  let env = ctx.env and hier = ctx.hier and stats = ctx.stats in
  let l1 = Cache.l1 hier in
  let line = Cache.line l1 in
  let line_mask = lnot (line - 1) in
  let whole_lines = Array.map (fun d -> d land (line - 1) = 0) deltas in
  (* The previous entry: its first addresses, its trip count when it
     missed L1 nowhere (else -1), and L1's probe count when it ended. *)
  let prev_addrs = Array.make n_sites 0 in
  let prev_n = ref (-1) and prev_probes = ref 0 in
  let same_lines () =
    let same = ref true and s = ref 0 in
    while !same && !s < n_sites do
      let a = addrs.(!s) and p = prev_addrs.(!s) in
      same := a = p || (whole_lines.(!s) && a land line_mask = p land line_mask);
      incr s
    done;
    !same
  in
  fun () ->
    let lo = lb () and hi = ub () in
    if lo < hi then begin
      let n = ((hi - lo - 1) / step) + 1 in
      env.(iv_slot) <- lo;
      for s = 0 to n_sites - 1 do
        addrs.(s) <- firsts.(s) ()
      done;
      let replay =
        n = !prev_n && Cache.probes l1 = !prev_probes && same_lines ()
      in
      Array.blit addrs 0 prev_addrs 0 n_sites;
      if replay then Cache.skip_hits l1 (n * n_sites)
      else begin
        let misses = Cache.misses l1 in
        stats.mem_cycles <-
          Cache.run_strided hier ~n ~addrs ~deltas ~costs stats.mem_cycles;
        prev_n := if Cache.misses l1 = misses then n else -1;
        prev_probes := Cache.probes l1
      end;
      ctx.n_accesses <- ctx.n_accesses + (n * n_sites);
      let n = float_of_int n in
      if vectorized then
        stats.flops_vector <- stats.flops_vector +. (fl *. n)
      else stats.flops_scalar <- stats.flops_scalar +. (fl *. n);
      stats.iterations <- stats.iterations +. (iter_weight *. n)
    end

let rec compile_block ctx (ops : Core.op list) =
  let closures = ref [] in
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
      | _ when is_flop op -> ()
      | "arith.addi" | "arith.subi" | "arith.muli" | "arith.floordivsi"
      | "arith.remsi" ->
          let f =
            match op.o_name with
            | "arith.addi" -> ( + )
            | "arith.subi" -> ( - )
            | "arith.muli" -> ( * )
            | name ->
                let loc = Core.nearest_loc op in
                let g =
                  if name = "arith.floordivsi" then Affine_expr.floordiv
                  else Affine_expr.floormod
                in
                fun x y ->
                  if y = 0 then D.errorf ~loc "trace: %s by zero" name
                  else g x y
          in
          let a = slot_of ctx (Core.operand op 0) in
          let b = slot_of ctx (Core.operand op 1) in
          let r = slot_of ctx (Core.result op 0) in
          closures :=
            (fun () -> ctx.env.(r) <- f ctx.env.(a) ctx.env.(b)) :: !closures
      | "affine.apply" ->
          let loc = Core.nearest_loc op in
          let map = Attr.get_map (Core.attr op "map") in
          let slots = Array.map (slot_of ctx) op.o_operands in
          let e =
            match map.Affine_map.exprs with
            | e :: _ -> e
            | [] -> D.errorf ~loc "trace: affine.apply with an empty map"
          in
          let f = stage ctx ~loc "affine.apply" slots e in
          let env = ctx.env and r = slot_of ctx (Core.result op 0) in
          closures := (fun () -> env.(r) <- f ()) :: !closures
      | "memref.alloc" | "memref.dealloc" -> ()
      | name ->
          D.errorf ~loc:(Core.nearest_loc op)
            "trace: cannot simulate operation '%s'" name)
    ops;
  Array.of_list (List.rev !closures)

and compile_for ctx (op : Core.op) =
  let iv_slot = slot_of ctx (A.for_iv op) in
  let loc = Core.nearest_loc op in
  let lb = eval_bound ctx ~loc ~minimize:false (A.for_lb op) in
  let ub = eval_bound ctx ~loc ~minimize:true (A.for_ub op) in
  let step = A.for_step op in
  let vectorized = is_vectorizable ~fast_math:ctx.fast_math op in
  let body_ops = Affine.Loops.body_ops op in
  let fl = float_of_int (direct_flops body_ops) in
  (* SIMD execution retires several logical iterations per hardware loop
     iteration: amortize the per-iteration branch/IV overhead. *)
  let iter_weight = if vectorized then 0.125 else 1.0 in
  match straight_line_sites ctx ~step body_ops with
  | Some sites ->
      compile_strided ctx ~iv_slot ~lb ~ub ~step ~iter_weight ~vectorized ~fl
        sites
  | None ->
      let body = compile_block ctx body_ops in
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
      n_accesses = 0;
      bounds = Affine.Bounds.analyze ops;
    }
  in
  let closures = compile_block ctx ops in
  stats.flops_scalar <- stats.flops_scalar +. float_of_int (direct_flops ops);
  Array.iter (fun c -> c ()) closures;
  stats.accesses <- stats.accesses +. float_of_int ctx.n_accesses
