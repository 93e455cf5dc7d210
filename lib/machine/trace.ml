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

let is_vectorizable ?fast_math loop =
  A.is_for loop
  &&
  let ops = Affine.Loops.body_ops loop in
  (not (List.exists A.is_for ops))
  && Affine.Loops.vectorizable_wrt ?fast_math (A.for_iv loop) ops

(* ---- compilation ------------------------------------------------------ *)

type ctx = {
  model : Machine_model.t;
  hier : Cache.hierarchy option;
      (** [None]: the counting walk, which stages no probe *)
  addrs : address_map;
  stats : stats;
  stage : Affine.Stage.t;
  fast_math : bool;
  mutable n_accesses : int;  (** added to [stats.accesses] at the end *)
  bounds : Affine.Bounds.t;
}

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
      match Affine.Loops.access_stride_wrt (A.for_iv loop) op with
      | Some s -> abs s <= 2
      | None -> false)

let buffer_base ctx (op : Core.op) =
  match Hashtbl.find_opt ctx.addrs (A.access_memref op).Core.v_id with
  | Some b -> b
  | None ->
      D.errorf ~loc:(Core.nearest_loc op)
        "trace: access to a buffer with no address"

(* An access's miss costs, indexed by [level - 2] for the level (2-4)
   that served an L1 miss. Rejects an access {!Affine.Bounds} proves out
   of its memref. *)
let miss_costs ctx op =
  Affine.Bounds.check_access ~who:"trace" ctx.bounds op;
  let streamed = is_streamed op in
  Array.init 3 (fun i -> miss_cost ctx ~streamed (i + 2))

(* An L1 hit adds nothing: its cost would be [+0.], and [mem_cycles] only
   grows from [+0.], so skipping the add leaves every bit as it was. The
   byte address is the buffer base plus 4 bytes per element of offset. *)
let compile_access ctx op =
  let base = buffer_base ctx op in
  let offset = Affine.Stage.offset ctx.stage op in
  let costs = miss_costs ctx op in
  match ctx.hier with
  | None -> fun _ -> ctx.n_accesses <- ctx.n_accesses + 1
  | Some hier ->
      let stats = ctx.stats in
      fun env ->
        let level = Cache.access_hierarchy hier (base + (4 * offset env)) in
        ctx.n_accesses <- ctx.n_accesses + 1;
        if level > 1 then
          stats.mem_cycles <- stats.mem_cycles +. costs.(level - 2)

let is_flop (op : Core.op) =
  match op.o_name with
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" -> true
  | _ -> false

(* Float ops directly in [ops], not in nested loops. *)
let direct_flops ops = List.length (List.filter is_flop ops)

(* A site of a straight-line body: its buffer's base address, its
   element offset split over the nest's ivs, and its miss costs. *)
type site = { base : int; offset : Affine.Stage.strided; costs : float array }

(* A straight-line body holds only accesses with linear addresses, float
   arithmetic and non-index constants: nothing in it writes an index
   value, so over one entry of its loop every address moves by a
   constant delta per iteration. A reshape copy's digit subscripts count
   as linear where [ctx.bounds] lets [Affine.Stage.strided] fold them.
   Returns its access sites in body order, each offset split over [ivs],
   or [None]. *)
let straight_line_sites ctx ~ivs body_ops =
  let straight (op : Core.op) =
    match op.o_name with
    | "affine.load" | "affine.store" -> true
    | "arith.constant" -> (
        match Core.attr op "value" with Attr.Int _ -> false | _ -> true)
    | _ -> is_flop op
  in
  if not (List.for_all straight body_ops) then None
  else
    let sites =
      List.filter_map
        (fun op ->
          if A.is_load op || A.is_store op then
            let base = buffer_base ctx op in
            let offset =
              Affine.Stage.strided ctx.stage ~bounds:ctx.bounds ivs op
            in
            let costs = miss_costs ctx op in
            Some (Option.map (fun offset -> { base; offset; costs }) offset)
          else None)
        body_ops
    in
    if List.for_all Option.is_some sites then
      Some (List.map Option.get sites)
    else None

(* Whether a bound of a loop below [loops.(l)] in a perfect nest reads
   its iv. A bound's other operands are ivs further out or values
   defined before the nest, so when none reads it, every iteration of
   level [l] in one run of it walks the same iteration space below. *)
let reads_iv loops l =
  let iv = (A.for_iv loops.(l)).Core.v_id in
  let reads (_, args) =
    List.exists (fun (v : Core.value) -> v.v_id = iv) args
  in
  let last = Array.length loops - 1 in
  Array.exists
    (fun lp -> reads (A.for_lb lp) || reads (A.for_ub lp))
    (Array.sub loops (l + 1) (last - l))

(* A perfect nest whose innermost body is straight-line runs as one walk.
   Per nest entry each site's base address is evaluated once; every
   level evaluates its bounds on entry, moves each site's address by its
   iv coefficient times the iv, and outer levels write their iv slot in
   every iteration, so a nested level's [min]/[max] bounds read it. An
   outer iteration counts one loop iteration, as the closure path does
   (an outer loop never vectorizes and has no flop of its own).

   Each innermost entry is [n] iterations of one walk over the sites
   ([Cache.run_strided]), each from its address for the first iteration,
   moving by its iv coefficient times the step. The flop, iteration and
   access counts are added once per entry: [fl *. n] and
   [iter_weight *. n] equal the per-iteration sums bit for bit, since
   every partial sum is an integer or a multiple of 1/8 far below 2^53.

   Staged once per nest: the walk's plan ([Cache.plan]), which levels can
   repeat their line sequence below them ([repeats]), and from these one
   of three entries:
   - [plain], where no entry can repeat;
   - [whole], where the level above can repeat (or the nest is one loop
     deep): an entry repeats the one before it when the trip count is
     the same, nothing probed L1 since, and every site touches the same
     line sequence (its first address is unchanged, or its first line is
     and its delta is a whole number of lines), and [chain]
     ([Cache.chain]) decides whether it replays;
   - [movers], where only the movers can repeat, and they keep one L1 set
     each ([Cache.one_set_movers]): the same test over the movers, while
     the stayers avoid the movers' sets, lets [chain] replay the movers
     alone ([Cache.replay_movers]).
   And the sub-walk levels: an iteration of an outer level [l] above the
   entry's runs every deeper level. When [l] can repeat and no deeper
   bound reads its iv, one sub-walk repeats the one before it in a run
   of [l] when every site that moves at [l] keeps its first line. Its
   misses are logged in [sink] (deeper walks log at their offset in it,
   replayed ones too), and a replay adds the sub-walk's access,
   iteration and flop counts. A replayed sub-walk leaves the entry with
   no predecessor ([prev_n]). *)
let compile_nest ctx hier loops ~iter_weight ~vectorized ~fl sites =
  let levels = Array.of_list (List.map (Affine.Stage.level ctx.stage) loops) in
  let last = Array.length levels - 1 in
  let sites = Array.of_list sites in
  let n_sites = Array.length sites in
  (* Byte addresses: 4 bytes per element. [ks.(l)]: each site's move per
     unit of level [l]'s iv; [moves.(l)]: per iteration of level [l]. *)
  let bases = Array.map (fun s -> s.base) sites in
  let offsets = Array.map (fun s -> s.offset.base) sites in
  let ks =
    Array.init (last + 1) (fun l ->
        Array.map (fun s -> 4 * s.offset.coeffs.(l)) sites)
  in
  let moves =
    Array.mapi (fun l k -> Array.map (fun k -> k * levels.(l).step) k) ks
  in
  let costs = Array.concat (Array.to_list (Array.map (fun s -> s.costs) sites)) in
  (* [at.(l)]: each site's address with the ivs of levels [0 .. l-1]
     applied; [addrs]: the innermost entry's walk. *)
  let at = Array.init (last + 1) (fun _ -> Array.make n_sites 0) in
  let addrs = Array.make n_sites 0 in
  let stats = ctx.stats in
  let l1 = Cache.l1 hier in
  let line = Cache.line l1 in
  let line_mask = lnot (line - 1) in
  let inner = levels.(last) in
  let k_in = ks.(last) and deltas = moves.(last) in
  let whole_lines = Array.map (fun d -> d land (line - 1) = 0) deltas in
  let plan = Cache.plan hier ~deltas in
  let mover = Array.init n_sites (Cache.is_mover plan) in
  (* Repeat potential, site [s] at level [l]: it stays there, or moves
     less than a line while each of its deeper moves is a whole number
     of lines, so its line sequence below repeats while its first
     address stays in its line. *)
  let repeats l s =
    let m = moves.(l).(s) in
    m = 0
    || abs m < line
       && Array.for_all
            (fun mv -> mv.(s) land (line - 1) = 0)
            (Array.sub moves (l + 1) (last - l))
  in
  let loops = Array.of_list loops in
  let all_sites f = Array.for_all f (Array.init n_sites Fun.id) in
  let sub_walk =
    Array.init last (fun l ->
        l < last - 1 && all_sites (repeats l) && not (reads_iv loops l))
  in
  (* A depth-1 nest's entries follow each other through closure-path
     code, so only the dynamic test applies. *)
  let entry_repeats = last = 0 || all_sites (repeats (last - 1)) in
  let movers_repeat =
    Cache.one_set_movers plan
    && (not entry_repeats)
    && all_sites (fun s -> (not mover.(s)) || repeats (last - 1) s)
  in
  (* The log of the innermost sub-walk being recorded, and the position
     of its first access ([ctx.n_accesses] counts positions). *)
  let sink = ref None and sink_start = ref 0 in
  let log_at sink_log pos o = Cache.append sink_log ~at:(pos - !sink_start) o in
  (* The previous entry: its first addresses, trip count, and L1's probe
     count when it ended; [chain]: the entries' chain (their movers' in
     [movers]). *)
  let prev_addrs = Array.make n_sites 0 in
  let prev_n = ref (-1) and prev_probes = ref 0 in
  let chain = Cache.chain () and logged = Cache.outcome () in
  (* The entry at [addrs]: probed, or with its movers replayed from
     [chain] when [movers_only]. Its misses are recorded in [o] when
     [record] or a sub-walk is being recorded, and logged in that
     sub-walk's log. *)
  let run ~movers_only ~record o ~n =
    let record =
      if record || Option.is_some !sink then begin
        Cache.clear o;
        Some o
      end
      else None
    in
    let mem = stats.mem_cycles in
    stats.mem_cycles <-
      (if movers_only then
         Cache.replay_movers ?record hier plan ~n ~addrs
           ~movers:chain.Cache.last ~costs mem
       else Cache.run_strided ?record hier plan ~n ~addrs ~costs mem);
    match !sink with
    | None -> ()
    | Some sink_log -> log_at sink_log ctx.n_accesses o
  in
  let replay o ~accesses =
    stats.mem_cycles <- Cache.replay hier ~accesses o ~costs stats.mem_cycles;
    match !sink with
    | None -> ()
    | Some sink_log -> log_at sink_log ctx.n_accesses o
  in
  let count n =
    ctx.n_accesses <- ctx.n_accesses + (n * n_sites);
    let n = float_of_int n in
    if vectorized then stats.flops_vector <- stats.flops_vector +. (fl *. n)
    else stats.flops_scalar <- stats.flops_scalar +. (fl *. n);
    stats.iterations <- stats.iterations +. (iter_weight *. n)
  in
  let plain env =
    let lo = inner.lb env and hi = inner.ub env in
    if lo < hi then begin
      let n = ((hi - lo - 1) / inner.step) + 1 in
      let cur = at.(last) in
      for s = 0 to n_sites - 1 do
        addrs.(s) <- cur.(s) + (k_in.(s) * lo)
      done;
      (* Most plain entries log nowhere: a direct call saves a call
         through [run] on every entry (2-4% on conv2d-nchw's 5-iteration
         entries). *)
      (match !sink with
      | None ->
          stats.mem_cycles <-
            Cache.run_strided hier plan ~n ~addrs ~costs stats.mem_cycles
      | Some _ -> run ~movers_only:false ~record:false logged ~n);
      count n
    end
  in
  (* The repeat test is written out in [whole] and [movers]: a shared
     helper made gemm's tiled cells 4% slower. *)
  let whole env =
    let lo = inner.lb env and hi = inner.ub env in
    if lo < hi then begin
      let n = ((hi - lo - 1) / inner.step) + 1 in
      let cur = at.(last) in
      let same = ref (n = !prev_n && Cache.probes l1 = !prev_probes) in
      for s = 0 to n_sites - 1 do
        let a = cur.(s) + (k_in.(s) * lo) and p = prev_addrs.(s) in
        addrs.(s) <- a;
        if !same && a <> p then
          same := whole_lines.(s) && a land line_mask = p land line_mask;
        prev_addrs.(s) <- a
      done;
      let same = !same in
      if same && chain.Cache.fixed then
        replay chain.Cache.last ~accesses:(n * n_sites)
      else begin
        let misses = Cache.misses l1 in
        if same then begin
          run ~movers_only:false ~record:true (Cache.spare chain) ~n;
          Cache.repeated chain
        end
        else begin
          run ~movers_only:false ~record:false logged ~n;
          Cache.broken chain ~clean:(Cache.misses l1 = misses)
        end;
        prev_n := n;
        prev_probes := Cache.probes l1
      end;
      count n
    end
  in
  (* A movers' chain runs over the entries whose stayers avoid the
     movers' sets; any other entry breaks it. *)
  let movers env =
    let lo = inner.lb env and hi = inner.ub env in
    if lo < hi then begin
      let n = ((hi - lo - 1) / inner.step) + 1 in
      let cur = at.(last) in
      let same = ref (n = !prev_n && Cache.probes l1 = !prev_probes) in
      for s = 0 to n_sites - 1 do
        let a = cur.(s) + (k_in.(s) * lo) and p = prev_addrs.(s) in
        addrs.(s) <- a;
        if !same && mover.(s) && a <> p then
          same := whole_lines.(s) && a land line_mask = p land line_mask;
        prev_addrs.(s) <- a
      done;
      let clean = !same && Cache.stayers_avoid_movers hier plan ~n ~addrs in
      if clean && chain.Cache.fixed then
        run ~movers_only:true ~record:false logged ~n
      else if clean then begin
        run ~movers_only:false ~record:true logged ~n;
        Cache.movers_outcome plan logged ~into:(Cache.spare chain);
        Cache.repeated chain
      end
      else begin
        run ~movers_only:false ~record:false logged ~n;
        Cache.broken chain ~clean:false
      end;
      prev_n := n;
      prev_probes := Cache.probes l1;
      count n
    end
  in
  (* Direct calls: a closure picked here would be called indirectly. *)
  let entry env =
    if movers_repeat then movers env
    else if entry_repeats then whole env
    else plain env
  in
  (* Per sub-walk level: the sites that move there, the previous
     iteration's first addresses, the chain, and the last sub-walk's
     access, iteration and flop counts. *)
  let moving =
    Array.init last (fun l ->
        List.filter (fun s -> moves.(l).(s) <> 0) (List.init n_sites Fun.id)
        |> Array.of_list)
  in
  let sw_prev = Array.init last (fun _ -> Array.make n_sites 0) in
  let sw_chain = Array.init last (fun _ -> Cache.chain ()) in
  let sw_accesses = Array.make last 0 in
  let sw_iterations = Array.make last 0. and sw_flops = Array.make last 0. in
  let flops () = if vectorized then stats.flops_vector else stats.flops_scalar in
  let rec walk l env =
    if l = last then entry env
    else begin
      let lv = levels.(l) in
      let lo = lv.lb env and hi = lv.ub env in
      let cur = at.(l) and next = at.(l + 1) in
      let k = ks.(l) and move = moves.(l) in
      for s = 0 to n_sites - 1 do
        next.(s) <- cur.(s) + (k.(s) * lo)
      done;
      let i = ref lo in
      if not sub_walk.(l) then
        while !i < hi do
          env.(lv.iv_slot) <- !i;
          walk (l + 1) env;
          for s = 0 to n_sites - 1 do
            next.(s) <- next.(s) + move.(s)
          done;
          stats.iterations <- stats.iterations +. 1.;
          i := !i + lv.step
        done
      else begin
        let prev = sw_prev.(l) and moving = moving.(l) in
        let chain = sw_chain.(l) in
        let first = ref true in
        while !i < hi do
          env.(lv.iv_slot) <- !i;
          let same = ref (not !first) in
          first := false;
          for m = 0 to Array.length moving - 1 do
            let s = moving.(m) in
            if next.(s) land line_mask <> prev.(s) land line_mask then
              same := false;
            prev.(s) <- next.(s)
          done;
          let pos = ctx.n_accesses in
          if !same && chain.Cache.fixed then begin
            replay chain.Cache.last ~accesses:sw_accesses.(l);
            ctx.n_accesses <- pos + sw_accesses.(l);
            stats.iterations <- stats.iterations +. sw_iterations.(l);
            if vectorized then
              stats.flops_vector <- stats.flops_vector +. sw_flops.(l)
            else stats.flops_scalar <- stats.flops_scalar +. sw_flops.(l);
            prev_n := -1
          end
          else begin
            let misses = Cache.misses l1 in
            let iterations = stats.iterations and fl = flops () in
            if !same then begin
              let o = Cache.spare chain in
              let outer = !sink and outer_start = !sink_start in
              sink := Some o;
              sink_start := pos;
              walk (l + 1) env;
              sink := outer;
              sink_start := outer_start;
              Cache.repeated chain;
              match outer with None -> () | Some sink_log -> log_at sink_log pos o
            end
            else begin
              walk (l + 1) env;
              Cache.broken chain ~clean:(Cache.misses l1 = misses)
            end;
            sw_accesses.(l) <- ctx.n_accesses - pos;
            sw_iterations.(l) <- stats.iterations -. iterations;
            sw_flops.(l) <- flops () -. fl
          end;
          for s = 0 to n_sites - 1 do
            next.(s) <- next.(s) + move.(s)
          done;
          stats.iterations <- stats.iterations +. 1.;
          i := !i + lv.step
        done
      end
    end
  in
  fun env ->
    let first = at.(0) in
    for s = 0 to n_sites - 1 do
      first.(s) <- bases.(s) + (4 * offsets.(s) env)
    done;
    walk 0 env

(* The counting walk of a straight-line nest: [compile_nest]'s
   iteration, flop and access counts, with no address and no probe. An
   innermost entry counts its [n] iterations at once, as there. An outer
   level whose iv no deeper bound reads ([reads_iv]) walks the same
   space below in every iteration, so its first iteration's counts,
   times the trip count, stand for the rest. Every count is an integer
   or a multiple of 1/8 far below 2^53, so these products add the same
   bits as the full walk's per-iteration sums. *)
let count_nest ctx loops ~iter_weight ~vectorized ~fl ~n_sites =
  let levels = Array.of_list (List.map (Affine.Stage.level ctx.stage) loops) in
  let last = Array.length levels - 1 in
  let loops = Array.of_list loops in
  let uniform = Array.init last (fun l -> not (reads_iv loops l)) in
  let stats = ctx.stats in
  let add_flops x =
    if vectorized then stats.flops_vector <- stats.flops_vector +. x
    else stats.flops_scalar <- stats.flops_scalar +. x
  in
  let flops () = if vectorized then stats.flops_vector else stats.flops_scalar in
  let rec walk l env =
    let lv = levels.(l) in
    let lo = lv.lb env and hi = lv.ub env in
    if lo < hi then begin
      let n = ((hi - lo - 1) / lv.step) + 1 in
      if l = last then begin
        ctx.n_accesses <- ctx.n_accesses + (n * n_sites);
        let n = float_of_int n in
        add_flops (fl *. n);
        stats.iterations <- stats.iterations +. (iter_weight *. n)
      end
      else if uniform.(l) then begin
        env.(lv.iv_slot) <- lo;
        let accesses = ctx.n_accesses in
        let iterations = stats.iterations and fl0 = flops () in
        walk (l + 1) env;
        let rest = n - 1 in
        ctx.n_accesses <-
          ctx.n_accesses + (rest * (ctx.n_accesses - accesses));
        let rest = float_of_int rest in
        add_flops (rest *. (flops () -. fl0));
        stats.iterations <-
          stats.iterations
          +. (rest *. (stats.iterations -. iterations))
          +. float_of_int n
      end
      else begin
        let i = ref lo in
        while !i < hi do
          env.(lv.iv_slot) <- !i;
          walk (l + 1) env;
          stats.iterations <- stats.iterations +. 1.;
          i := !i + lv.step
        done
      end
    end
  in
  walk 0

let rec compile_block ctx (ops : Core.op list) =
  let closures = ref [] in
  let stage = ctx.stage in
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
              let s = Affine.Stage.def stage (Core.result op 0) in
              closures := (fun env -> env.(s) <- i) :: !closures
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
          let a = Affine.Stage.use stage op (Core.operand op 0) in
          let b = Affine.Stage.use stage op (Core.operand op 1) in
          let r = Affine.Stage.def stage (Core.result op 0) in
          closures := (fun env -> env.(r) <- f env.(a) env.(b)) :: !closures
      | "affine.apply" ->
          let f = Affine.Stage.apply stage op in
          let r = Affine.Stage.def stage (Core.result op 0) in
          closures := (fun env -> env.(r) <- f env) :: !closures
      | "memref.alloc" | "memref.dealloc" -> ()
      | name ->
          D.errorf ~loc:(Core.nearest_loc op)
            "trace: cannot simulate operation '%s'" name)
    ops;
  Array.of_list (List.rev !closures)

(* SIMD execution retires several logical iterations per hardware loop
   iteration: a vectorized loop's per-iteration branch/IV overhead is
   amortized. Called once the loop's accesses are staged, so their maps
   are valid. *)
and vectorization ctx loop =
  let vectorized = is_vectorizable ~fast_math:ctx.fast_math loop in
  (vectorized, if vectorized then 0.125 else 1.0)

and compile_for ctx (op : Core.op) =
  let loops, body_ops = Affine.Loops.nest_with_body op in
  let ivs = Array.of_list (List.map A.for_iv loops) in
  match straight_line_sites ctx ~ivs body_ops with
  | Some sites ->
      let innermost = List.nth loops (List.length loops - 1) in
      let vectorized, iter_weight = vectorization ctx innermost in
      let fl = float_of_int (direct_flops body_ops) in
      (match ctx.hier with
      | Some hier ->
          compile_nest ctx hier loops ~iter_weight ~vectorized ~fl sites
      | None ->
          count_nest ctx loops ~iter_weight ~vectorized ~fl
            ~n_sites:(List.length sites))
  | None ->
      let { Affine.Stage.step; lb; ub; iv_slot } =
        Affine.Stage.level ctx.stage op
      in
      let body_ops = Affine.Loops.body_ops op in
      let fl = float_of_int (direct_flops body_ops) in
      let body = compile_block ctx body_ops in
      let vectorized, iter_weight = vectorization ctx op in
      let stats = ctx.stats in
      fun env ->
        let lo = lb env and hi = ub env in
        let i = ref lo in
        while !i < hi do
          env.(iv_slot) <- !i;
          for c = 0 to Array.length body - 1 do
            body.(c) env
          done;
          if vectorized then stats.flops_vector <- stats.flops_vector +. fl
          else stats.flops_scalar <- stats.flops_scalar +. fl;
          stats.iterations <- stats.iterations +. iter_weight;
          i := !i + step
        done

let walk ?(fast_math = false) model hier addrs stats ops =
  let ctx =
    {
      model;
      hier;
      addrs;
      stats;
      stage = Affine.Stage.create ~who:"trace";
      fast_math;
      n_accesses = 0;
      bounds = Affine.Bounds.analyze ops;
    }
  in
  let closures = compile_block ctx ops in
  let env = Array.make (Affine.Stage.n_slots ctx.stage) 0 in
  stats.flops_scalar <- stats.flops_scalar +. float_of_int (direct_flops ops);
  Array.iter (fun c -> c env) closures;
  stats.accesses <- stats.accesses +. float_of_int ctx.n_accesses

let simulate ?fast_math model hier = walk ?fast_math model (Some hier)
let count ?fast_math model = walk ?fast_math model None
