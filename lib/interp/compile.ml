(* The staged compile-to-closure execution engine.

   A verified [func.func] is compiled once into nested OCaml closures:

   - every SSA value is value-numbered into a dense slot of a typed
     register frame (an [int array] for index/integer values, a
     [float array] for scalars, a [Buffer.t array] for memrefs) — no
     hash-table lookups in the hot path;
   - op dispatch (a tree walker's per-iteration string match) is
     resolved once at compile time: each op becomes a closure specialized to its
     operand/result slots;
   - affine bounds, [affine.apply] maps and access offsets are staged
     by [Affine.Stage], which also numbers the integer slots; loop bounds
     are evaluated once per loop entry;
   - memref accesses lower to row-major linear offsets. An access that
     [Affine.Bounds] proves in bounds is a
     single unchecked [data.(offset)] read/write; anything it cannot
     prove (data-dependent or potentially out-of-range indices) falls
     back to the per-dimension checked path, which fails an index out of
     its dimension with a [Diag.Error] located at the access op;
   - a perfect [affine.for] nest (every level's body exactly the next
     level plus its yield) runs as one native strided walk
     ([compile_nest]), not as op closures per iteration and a closure
     call per outer iteration, when its innermost body is one of two
     statements over accesses proven in bounds with offsets linear in the
     nest's ivs: a multiply-accumulate [S = C + A * B] (three
     [affine.load]s, [arith.mulf], [arith.addf], the [affine.store] last;
     either operand order) or a copy [store (load X), Y]. Each access's
     offset is [Affine.Stage.strided]: a base evaluated once per nest
     entry and a coefficient per level. A transpose's offsets are linear
     as written; a reshape's [floordiv]/[mod] digit subscripts are the
     mixed-radix digits of one linear index, which [strided] folds into
     that index where [Affine.Bounds] proves it inside the memref. Outer
     levels write their iv slot and evaluate the next level's bounds per
     iteration, so tile [min]/[max] and iv-dependent bounds hold. The
     innermost level reads before it stores in every iteration (a
     multiply-accumulate applies the reference's [*.] and [+.] in IR
     operand order), so buffers stay bit-identical (NaN payloads
     included) even when the store aliases a load. A lone innermost loop
     is a nest of depth 1. Any other body keeps the closure path, whose
     levels are tried again as nests of their own; [c_fused_loops] counts
     the multiply-accumulate nests, [c_fused_levels] their summed depth
     and [c_copy_loops] the copy nests.

   The tests' reference interpreter (test/ref_interp.ml) is the
   semantic oracle; differential tests assert bit-identical buffers
   between it and this engine. *)

open Ir
module A = Affine.Affine_ops
open Rt

type frame = {
  ints : int array;
  floats : float array;
  bufs : Buffer.t array;
}

type code = frame -> unit

(* ---------------- compilation context ----------------------------------- *)

type ctx = {
  stage : Affine.Stage.t; (* integer values: frame.ints slots *)
  float_slot : (int, int) Hashtbl.t; (* value id -> frame.floats index *)
  buf_slot : (int, int) Hashtbl.t;
  bounds : Affine.Bounds.t;
  mutable n_floats : int;
  mutable n_bufs : int;
  mutable checked_accesses : int;
  mutable unchecked_accesses : int;
  mutable fused_loops : int;
  mutable fused_levels : int;
  mutable copy_loops : int;
}

let create_ctx bounds =
  {
    stage = Affine.Stage.create ~who:"interp";
    float_slot = Hashtbl.create 64;
    buf_slot = Hashtbl.create 16;
    bounds;
    n_floats = 0;
    n_bufs = 0;
    checked_accesses = 0;
    unchecked_accesses = 0;
    fused_loops = 0;
    fused_levels = 0;
    copy_loops = 0;
  }

(* Definition sites assign a slot (and with it the value's runtime class,
   mirroring the reference's dynamic R_int/R_float/R_buf tagging). *)
let def_int ctx v = Affine.Stage.def ctx.stage v

let def_float ctx (v : Core.value) =
  let s = ctx.n_floats in
  ctx.n_floats <- s + 1;
  Hashtbl.replace ctx.float_slot v.v_id s;
  s

let def_buf ctx (v : Core.value) =
  let s = ctx.n_bufs in
  ctx.n_bufs <- s + 1;
  Hashtbl.replace ctx.buf_slot v.v_id s;
  s

(* Use sites resolve the slots of [op]'s operands; SSA dominance
   guarantees the definition was compiled first, so a missing slot is a
   class mismatch. *)
let int_slot ctx op v = Affine.Stage.use ctx.stage op v

let buf_slot ctx op (v : Core.value) =
  match Hashtbl.find_opt ctx.buf_slot v.v_id with
  | Some s -> s
  | None -> error_at op "interp: expected a buffer value"

(* Float reads coerce integer operands like the reference's [as_float]. *)
let float_rd ctx op (v : Core.value) : frame -> float =
  match Hashtbl.find_opt ctx.float_slot v.v_id with
  | Some s -> fun fr -> fr.floats.(s)
  | None -> (
      match Affine.Stage.find ctx.stage v with
      | Some s -> fun fr -> float_of_int fr.ints.(s)
      | None -> error_at op "interp: expected a float value")

let float_slot2 ctx (a : Core.value) (b : Core.value) =
  match
    ( Hashtbl.find_opt ctx.float_slot a.v_id,
      Hashtbl.find_opt ctx.float_slot b.v_id )
  with
  | Some sa, Some sb -> Some (sa, sb)
  | _ -> None

let static_shape_of op (v : Core.value) =
  match Typ.static_shape v.Core.v_typ with
  | Some shape -> Array.of_list shape
  | None ->
      error_at op "interp: dynamic memref shapes unsupported (%s)"
        (Typ.to_string v.Core.v_typ)

(* ---------------- memory accesses --------------------------------------- *)

let access_buf ctx op =
  let memref, _, _ = Option.get (Affine.Bounds.access op) in
  buf_slot ctx op memref

(* Affine and memref accesses alike: one that [Affine.Bounds] proves in
   bounds is a single stride-weighted indexed read/write; any other takes
   the checked per-dimension fallback. *)
let compile_access ctx (op : Core.op) : code =
  let bslot = access_buf ctx op in
  let kind =
    if String.ends_with ~suffix:".store" op.o_name then
      `Store (float_rd ctx op (Core.operand op 0))
    else `Load (def_float ctx (Core.result op 0))
  in
  if Affine.Bounds.proven_in ctx.bounds op then begin
    ctx.unchecked_accesses <- ctx.unchecked_accesses + 1;
    let off = Affine.Stage.offset ctx.stage op in
    match kind with
    | `Load d ->
        fun fr -> fr.floats.(d) <- fr.bufs.(bslot).Buffer.data.(off fr.ints)
    | `Store gv -> fun fr -> fr.bufs.(bslot).Buffer.data.(off fr.ints) <- gv fr
  end
  else begin
    ctx.checked_accesses <- ctx.checked_accesses + 1;
    let comp = Affine.Stage.subscripts ctx.stage op in
    let n = Array.length comp in
    (* [Buffer.linear_index]'s checks, but an index out of its dimension
       is a located error, not an [Invalid_argument]. *)
    let offset fr (b : Buffer.t) =
      if n <> Array.length b.shape then
        invalid_arg "Buffer: index rank mismatch";
      let o = ref 0 in
      for i = 0 to n - 1 do
        let x = comp.(i) fr.ints in
        if x < 0 || x >= b.shape.(i) then index_error op b i x;
        o := !o + (x * b.strides.(i))
      done;
      !o
    in
    match kind with
    | `Load d ->
        fun fr ->
          let b = fr.bufs.(bslot) in
          fr.floats.(d) <- b.data.(offset fr b)
    | `Store gv ->
        fun fr ->
          let b = fr.bufs.(bslot) in
          b.data.(offset fr b) <- gv fr
  end

(* ---------------- strided nests ------------------------------------------ *)

let ( let* ) = Option.bind

(* The innermost body of a strided nest, over its accesses in order. *)
type body =
  | Mac of bool
      (* [s = c + a * b] over [a; b; c; s]; [true] when the product is
         [arith.addf]'s first operand *)
  | Copy  (* [store (load x), y] over [x; y] *)

(* [Some (Mac _, [| a; b; c; s |])] when a loop body's [ops], without
   its terminator, are exactly [s = addf(mulf(a, b), c)] or
   [s = addf(c, mulf(a, b))] over three distinct [affine.load]s, with
   the [affine.store] [s] last. *)
let match_mac (ops : Core.op list) =
  let def name (v : Core.value) =
    match v.v_def with
    | Core.Def_op (op, 0) when op.o_name = name && List.memq op ops -> Some op
    | _ -> None
  in
  match List.rev ops with
  | s :: _ when List.length ops = 6 && A.is_store s ->
      let* add = def "arith.addf" (A.stored_value s) in
      let* mul, c, product_first =
        match
          (def "arith.mulf" (Core.operand add 0),
           def "affine.load" (Core.operand add 1))
        with
        | Some mul, Some c -> Some (mul, c, true)
        | _ -> (
            match
              (def "affine.load" (Core.operand add 0),
               def "arith.mulf" (Core.operand add 1))
            with
            | Some c, Some mul -> Some (mul, c, false)
            | _ -> None)
      in
      let* a = def "affine.load" (Core.operand mul 0) in
      let* b = def "affine.load" (Core.operand mul 1) in
      if a != b && a != c && b != c then
        Some (Mac product_first, [| a; b; c; s |])
      else None
  | _ -> None

(* [Some (Copy, [| x; y |])] when the body is exactly an [affine.load] [x]
   and an [affine.store] [y] of its result. *)
let match_copy (ops : Core.op list) =
  match ops with
  | [ x; y ] when A.is_load x && A.is_store y -> (
      match (A.stored_value y).v_def with
      | Core.Def_op (op, 0) when op == x -> Some (Copy, [| x; y |])
      | _ -> None)
  | _ -> None

(* [Some (loops, body, sites)] when the perfect nest from [op]
   ([Affine.Loops.perfect_nest]: every level's body is exactly the next
   level) ends in a multiply-accumulate or copy body whose accesses are
   proven in bounds with offsets linear in the nest's ivs: each site is
   its buffer slot and its {!Affine.Stage.strided} offset (a reshape's
   digit subscripts folded where the bounds allow), whose base reads
   only values defined outside the nest. Allocates no slot, so a [None]
   leaves [ctx] as it was. *)
let match_nest ctx (op : Core.op) =
  let loops, ops = Affine.Loops.nest_with_body op in
  let* body, accesses =
    match match_mac ops with Some m -> Some m | None -> match_copy ops
  in
  let ivs = Array.of_list (List.map A.for_iv loops) in
  let site x =
    if not (Affine.Bounds.proven_in ctx.bounds x) then None
    else
      Option.map
        (fun o -> (access_buf ctx x, o))
        (Affine.Stage.strided ctx.stage ~bounds:ctx.bounds ivs x)
  in
  let sites = Array.map site accesses in
  if Array.for_all Option.is_some sites then
    Some (loops, body, Array.map Option.get sites)
  else None

(* A loop level ({!Affine.Stage.level}) and its body. *)
let compile_level ctx (op : Core.op) =
  let body = check_loop_shape op in
  (Affine.Stage.level ctx.stage op, body)

(* The innermost level of a strided nest: [inner fr o] runs it from its
   lower bound, site [s] starting at [o.(s)] plus its coefficient times
   that bound and moving by its coefficient times the step. A
   multiply-accumulate reads its three loads, then applies the
   reference's [*.] and [+.] in IR operand order and stores; a copy
   reads, then stores. Reading before writing in every iteration keeps
   buffers bit-identical to the reference (NaN payloads included) even
   when the store aliases a load. *)
let innermost body (lv : Affine.Stage.level) (bufs : int array)
    (k : int array) =
  let step = lv.step in
  match body with
  | Mac product_first ->
      let ka = k.(0) and kb = k.(1) and kc = k.(2) and ks = k.(3) in
      let sa = ka * step and sb = kb * step and sc = kc * step
      and ss = ks * step in
      fun fr (o : int array) ->
        let da = fr.bufs.(bufs.(0)).Buffer.data
        and db = fr.bufs.(bufs.(1)).Buffer.data
        and dc = fr.bufs.(bufs.(2)).Buffer.data
        and ds = fr.bufs.(bufs.(3)).Buffer.data in
        let lb = lv.lb fr.ints and ub = lv.ub fr.ints in
        let oa = ref (o.(0) + (ka * lb))
        and ob = ref (o.(1) + (kb * lb))
        and oc = ref (o.(2) + (kc * lb))
        and os = ref (o.(3) + (ks * lb)) in
        let i = ref lb in
        if product_first then
          while !i < ub do
            ds.(!os) <- (da.(!oa) *. db.(!ob)) +. dc.(!oc);
            oa := !oa + sa;
            ob := !ob + sb;
            oc := !oc + sc;
            os := !os + ss;
            i := !i + step
          done
        else
          while !i < ub do
            ds.(!os) <- dc.(!oc) +. (da.(!oa) *. db.(!ob));
            oa := !oa + sa;
            ob := !ob + sb;
            oc := !oc + sc;
            os := !os + ss;
            i := !i + step
          done
  | Copy ->
      let kx = k.(0) and ky = k.(1) in
      let sx = kx * step and sy = ky * step in
      fun fr o ->
        let dx = fr.bufs.(bufs.(0)).Buffer.data
        and dy = fr.bufs.(bufs.(1)).Buffer.data in
        let lb = lv.lb fr.ints and ub = lv.ub fr.ints in
        let ox = ref (o.(0) + (kx * lb)) and oy = ref (o.(1) + (ky * lb)) in
        let i = ref lb in
        while !i < ub do
          dy.(!oy) <- dx.(!ox);
          ox := !ox + sx;
          oy := !oy + sy;
          i := !i + step
        done

(* A perfect strided nest as one native walk. Per nest entry each site's
   base offset is read once; every outer level evaluates its bounds on
   entry, writes its iv slot each iteration (the next level's bounds may
   read it: tile [min]/[max]) and moves each site's offset by its
   coefficient times the iv, and the innermost level runs the body
   ([innermost]). The levels iterate in the reference's order. *)
let compile_nest ctx (loops, body, sites) : code =
  let levels : Affine.Stage.level array =
    Array.of_list (List.map (fun op -> fst (compile_level ctx op)) loops)
  in
  let n = Array.length sites in
  ctx.unchecked_accesses <- ctx.unchecked_accesses + n;
  (match body with
  | Mac _ ->
      ctx.fused_loops <- ctx.fused_loops + 1;
      ctx.fused_levels <- ctx.fused_levels + Array.length levels
  | Copy -> ctx.copy_loops <- ctx.copy_loops + 1);
  let last = Array.length levels - 1 in
  let bases = Array.map (fun (_, (o : Affine.Stage.strided)) -> o.base) sites in
  (* [k.(l).(s)]: site [s]'s move per unit of level [l]'s iv. *)
  let k =
    Array.init (last + 1) (fun l ->
        Array.map (fun (_, (o : Affine.Stage.strided)) -> o.coeffs.(l)) sites)
  in
  let inner = innermost body levels.(last) (Array.map fst sites) k.(last) in
  fun fr ->
    let ints = fr.ints in
    (* [at.(l)]: each site's offset with the ivs of levels [0 .. l-1]. *)
    let at = Array.init (last + 1) (fun _ -> Array.make n 0) in
    let first = at.(0) in
    for s = 0 to n - 1 do
      first.(s) <- bases.(s) ints
    done;
    let rec level l =
      if l = last then inner fr at.(l)
      else begin
        let lv = levels.(l) in
        let o = at.(l) and o' = at.(l + 1) and kl = k.(l) in
        let ub = lv.ub ints in
        let i = ref (lv.lb ints) in
        while !i < ub do
          ints.(lv.iv_slot) <- !i;
          for s = 0 to n - 1 do
            o'.(s) <- o.(s) + (kl.(s) * !i)
          done;
          level (l + 1);
          i := !i + lv.step
        done
      end
    in
    level 0

(* ---------------- operations -------------------------------------------- *)

let rec compile_block ctx (b : Core.block) : code =
  let codes = List.filter_map (compile_op ctx) (Core.ops_of_block b) in
  match codes with
  | [] -> fun _ -> ()
  | [ c ] -> c
  | [ c1; c2 ] ->
      fun fr ->
        c1 fr;
        c2 fr
  | [ c1; c2; c3 ] ->
      fun fr ->
        c1 fr;
        c2 fr;
        c3 fr
  | [ c1; c2; c3; c4 ] ->
      fun fr ->
        c1 fr;
        c2 fr;
        c3 fr;
        c4 fr
  | cs ->
      let cs = Array.of_list cs in
      fun fr ->
        for i = 0 to Array.length cs - 1 do
          cs.(i) fr
        done

and compile_op ctx (op : Core.op) : code option =
  match op.o_name with
  | "affine.yield" | "scf.yield" | "func.return" | "memref.dealloc" -> None
  | "arith.constant" -> (
      match Core.attr op "value" with
      | Attr.Float f ->
          let d = def_float ctx (Core.result op 0) in
          Some (fun fr -> fr.floats.(d) <- f)
      | Attr.Int i ->
          let d = def_int ctx (Core.result op 0) in
          Some (fun fr -> fr.ints.(d) <- i)
      | a -> error_at op "interp: bad constant %s" (Attr.to_string a))
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" -> (
      let x = Core.operand op 0 and y = Core.operand op 1 in
      let d = def_float ctx (Core.result op 0) in
      match float_slot2 ctx x y with
      | Some (a, b) ->
          Some
            (match op.o_name with
            | "arith.addf" ->
                fun fr -> fr.floats.(d) <- fr.floats.(a) +. fr.floats.(b)
            | "arith.subf" ->
                fun fr -> fr.floats.(d) <- fr.floats.(a) -. fr.floats.(b)
            | "arith.mulf" ->
                fun fr -> fr.floats.(d) <- fr.floats.(a) *. fr.floats.(b)
            | _ -> fun fr -> fr.floats.(d) <- fr.floats.(a) /. fr.floats.(b))
      | None ->
          (* Mixed int/float operands: coerce through getters like the
             reference's [as_float]. *)
          let ga = float_rd ctx op x and gb = float_rd ctx op y in
          Some
            (match op.o_name with
            | "arith.addf" -> fun fr -> fr.floats.(d) <- ga fr +. gb fr
            | "arith.subf" -> fun fr -> fr.floats.(d) <- ga fr -. gb fr
            | "arith.mulf" -> fun fr -> fr.floats.(d) <- ga fr *. gb fr
            | _ -> fun fr -> fr.floats.(d) <- ga fr /. gb fr))
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.floordivsi"
  | "arith.remsi" ->
      let x = Core.operand op 0 and y = Core.operand op 1 in
      let a = int_slot ctx op x and b = int_slot ctx op y in
      let d = def_int ctx (Core.result op 0) in
      Some
        (match op.o_name with
        | "arith.addi" -> fun fr -> fr.ints.(d) <- fr.ints.(a) + fr.ints.(b)
        | "arith.subi" -> fun fr -> fr.ints.(d) <- fr.ints.(a) - fr.ints.(b)
        | "arith.muli" -> fun fr -> fr.ints.(d) <- fr.ints.(a) * fr.ints.(b)
        | "arith.floordivsi" ->
            fun fr -> fr.ints.(d) <- floordivsi op fr.ints.(a) fr.ints.(b)
        | _ -> fun fr -> fr.ints.(d) <- remsi op fr.ints.(a) fr.ints.(b))
  | "memref.alloc" ->
      let r = Core.result op 0 in
      let shape = Array.to_list (static_shape_of op r) in
      let d = def_buf ctx r in
      (* Allocation stays inside the closure: an alloc nested in a loop
         yields a fresh zeroed buffer per iteration, like the reference. *)
      Some (fun fr -> fr.bufs.(d) <- Buffer.create shape)
  | "affine.for" -> (
      match match_nest ctx op with
      | Some nest -> Some (compile_nest ctx nest)
      | None ->
          let { Affine.Stage.step; lb; ub; iv_slot }, body =
            compile_level ctx op
          in
          let body_code = compile_block ctx body in
          Some
            (fun fr ->
              let ub = ub fr.ints in
              let i = ref (lb fr.ints) in
              while !i < ub do
                fr.ints.(iv_slot) <- !i;
                body_code fr;
                i := !i + step
              done))
  | "scf.for" ->
      let body = check_loop_shape op in
      let s_lb = int_slot ctx op (Core.operand op 0)
      and s_ub = int_slot ctx op (Core.operand op 1)
      and s_step = int_slot ctx op (Core.operand op 2) in
      let iv_slot = def_int ctx body.b_args.(0) in
      let body_code = compile_block ctx body in
      Some
        (fun fr ->
          let lb = fr.ints.(s_lb)
          and ub = fr.ints.(s_ub)
          and step = fr.ints.(s_step) in
          if step <= 0 then
            error_at op "interp: scf.for with non-positive step";
          let i = ref lb in
          while !i < ub do
            fr.ints.(iv_slot) <- !i;
            body_code fr;
            i := !i + step
          done)
  | "affine.load" | "affine.store" | "memref.load" | "memref.store" ->
      Some (compile_access ctx op)
  | "affine.apply" ->
      let c = Affine.Stage.apply ctx.stage op in
      let d = def_int ctx (Core.result op 0) in
      Some (fun fr -> fr.ints.(d) <- c fr.ints)
  | name -> (
      match Kernels.library op with
      | Some run ->
          let slots = Array.map (buf_slot ctx op) op.o_operands in
          Some (fun fr -> run (Array.map (fun s -> fr.bufs.(s)) slots))
      | None -> error_at op "interp: unsupported operation '%s'" name)

(* ---------------- whole functions --------------------------------------- *)

type compiled = {
  c_func : Core.op;
  c_arg_slots : int array;
  c_n_ints : int;
  c_n_floats : int;
  c_n_bufs : int;
  c_checked_accesses : int;
  c_unchecked_accesses : int;
  c_fused_loops : int;
  c_fused_levels : int;
  c_copy_loops : int;
  c_body : code;
}

let m_compile_seconds =
  Support.Once.make (fun () ->
      Metrics.histogram ~help:"Interp.Compile.compile_func latency"
        "mlt_interp_compile_seconds")

let compile_func f =
  if not (Core.is_func f) then
    invalid_arg "Interp.Compile.compile_func: not a func.func";
  Metrics.time (Support.Once.get m_compile_seconds)
  @@ fun () ->
  Trace.span ~cat:"interp"
    ~args:[ ("func", Trace.A_str (Core.func_name f)) ]
    "compile"
  @@ fun () ->
  let ctx = create_ctx (Affine.Bounds.analyze [ f ]) in
  let arg_slots =
    Array.of_list (List.map (def_buf ctx) (Core.func_args f))
  in
  let body = compile_block ctx (Core.func_entry f) in
  {
    c_func = f;
    c_arg_slots = arg_slots;
    c_n_ints = Affine.Stage.n_slots ctx.stage;
    c_n_floats = ctx.n_floats;
    c_n_bufs = ctx.n_bufs;
    c_checked_accesses = ctx.checked_accesses;
    c_unchecked_accesses = ctx.unchecked_accesses;
    c_fused_loops = ctx.fused_loops;
    c_fused_levels = ctx.fused_levels;
    c_copy_loops = ctx.copy_loops;
    c_body = body;
  }

let placeholder_buf = Buffer.create []

let execute c args =
  validate_args c.c_func args;
  let fr =
    {
      ints = Array.make (max 1 c.c_n_ints) 0;
      floats = Array.make (max 1 c.c_n_floats) 0.;
      bufs = Array.make (max 1 c.c_n_bufs) placeholder_buf;
    }
  in
  List.iteri (fun i b -> fr.bufs.(c.c_arg_slots.(i)) <- b) args;
  c.c_body fr
