(* Tests for the cache simulator, trace generator, BLAS model and the
   performance orderings the Figure-9 reproduction relies on. *)

open Ir
module MM = Machine.Machine_model
module C = Machine.Cache
module W = Workloads.Polybench

let test_cache_basics () =
  (* 4 sets x 2 ways x 64B lines = 512B. *)
  let c = C.create ~size:512 ~line:64 ~ways:2 in
  Alcotest.(check bool) "cold miss" false (C.access c 0);
  Alcotest.(check bool) "hit same line" true (C.access c 32);
  Alcotest.(check bool) "different line misses" false (C.access c 64);
  Alcotest.(check int) "accesses" 3 (C.accesses c);
  Alcotest.(check int) "misses" 2 (C.misses c)

let test_cache_lru_eviction () =
  let c = C.create ~size:512 ~line:64 ~ways:2 in
  (* Three lines mapping to the same set (stride = sets*line = 256). *)
  ignore (C.access c 0);
  ignore (C.access c 256);
  ignore (C.access c 512);
  (* 0 was least recently used: evicted. *)
  Alcotest.(check bool) "evicted line misses" false (C.access c 0);
  (* 512 still resident: 256 was evicted when 0 came back. *)
  Alcotest.(check bool) "mru line hits" true (C.access c 512)

let test_cache_associativity_conflicts () =
  (* Direct-mapped (1 way): two conflicting lines always miss; 2-way holds
     both. *)
  let dm = C.create ~size:256 ~line:64 ~ways:1 in
  let sa = C.create ~size:256 ~line:64 ~ways:2 in
  for _ = 1 to 10 do
    ignore (C.access dm 0);
    ignore (C.access dm 256);
    ignore (C.access sa 0);
    ignore (C.access sa 512)
  done;
  Alcotest.(check int) "direct-mapped thrashes" 20 (C.misses dm);
  Alcotest.(check int) "2-way keeps both" 2 (C.misses sa)

let test_hierarchy_levels () =
  let h =
    C.create_hierarchy
      ~l1:(C.create ~size:256 ~line:64 ~ways:2)
      ~l2:(C.create ~size:1024 ~line:64 ~ways:2)
      ~l3:(C.create ~size:4096 ~line:64 ~ways:4)
  in
  Alcotest.(check int) "cold access goes to memory" 4 (C.access_hierarchy h 0);
  Alcotest.(check int) "then hits L1" 1 (C.access_hierarchy h 0);
  (* Touch enough lines to evict from L1 but not L2. *)
  for i = 1 to 8 do
    ignore (C.access_hierarchy h (i * 64))
  done;
  Alcotest.(check int) "L2 hit after L1 eviction" 2 (C.access_hierarchy h 0)

let test_cache_power_of_two () =
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "Cache.create accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "48-byte lines" (fun () ->
      C.create ~size:(48 * 4 * 2) ~line:48 ~ways:2);
  rejects "3 sets" (fun () -> C.create ~size:(64 * 3 * 2) ~line:64 ~ways:2);
  rejects "a size that is no multiple of line * ways" (fun () ->
      C.create ~size:500 ~line:64 ~ways:2);
  rejects "zero ways" (fun () -> C.create ~size:512 ~line:64 ~ways:0);
  (* The way count itself need not be a power of two. *)
  let c = C.create ~size:(64 * 4 * 3) ~line:64 ~ways:3 in
  Alcotest.(check bool) "3-way cache works" false (C.access c 0);
  List.iter (fun m -> ignore (MM.fresh_hierarchy m)) MM.platforms

(* ---- exact-LRU differential ------------------------------------------

   A naive reference: one most-recent-first list of line ids per set; a
   hit moves the line to the front, a miss pushes it there and drops the
   tail once the set holds [ways] lines. [Machine.Cache] must agree with
   it on every access, which is what licenses its in-place recency order:
   the first-way test that writes nothing on a hit, the one-pass rotate
   that stops at the line's old way or pushes out the last way, and the
   reset that fills the tags only after a miss. *)

module Ref_lru = struct
  type t = {
    line : int;
    ways : int;
    lists : int list array;
    mutable accesses : int;
    mutable misses : int;
  }

  let create ~line ~sets ~ways =
    { line; ways; lists = Array.make sets []; accesses = 0; misses = 0 }

  (* Floor division: an access may run below its buffer's base, and the
     simulator's shift and mask floor too. A hit on the most recent line
     leaves the list as it is, so it is not rebuilt. *)
  let access t addr =
    let line_id = Affine_expr.floordiv addr t.line in
    let set = Affine_expr.floormod line_id (Array.length t.lists) in
    let l = t.lists.(set) in
    t.accesses <- t.accesses + 1;
    match l with
    | most_recent :: _ when most_recent = line_id -> true
    | _ ->
        let hit = List.mem line_id l in
        let rest = List.filter (fun x -> x <> line_id) l in
        let rest =
          if hit then rest
          else begin
            t.misses <- t.misses + 1;
            List.filteri (fun i _ -> i < t.ways - 1) rest
          end
        in
        t.lists.(set) <- line_id :: rest;
        hit

  let reset t =
    Array.fill t.lists 0 (Array.length t.lists) [];
    t.accesses <- 0;
    t.misses <- 0
end

(* ---- reference trace -------------------------------------------------

   The plain specification the simulator's address generation, loop
   staging and skips are checked against: a naive walk over affine IR
   that evaluates every bound and map with [Affine_expr.eval] in every
   iteration, with no staging, strides or skips. Each access emits its
   byte address, from [Trace.assign_addresses]' bases, in program order
   into one [Ref_lru] per level: L1 first, L2 on an L1 miss, L3 on an L2
   miss, [Cache.access_hierarchy]'s fill rule. An L1 miss adds the cost
   of the level that served it to [mem_cycles], in program order: the
   streaming cost when the access moves at most two elements per
   iteration of its innermost loop, else the level's latency over the
   machine's memory-level parallelism. Library calls touch no cache, as
   in [Perf.time_func]. *)

module Ref_trace = struct
  type t = {
    model : MM.t;
    levels : Ref_lru.t array;
    mutable accesses : int;
    mutable mem_cycles : float;
  }

  (* [geometry]: each level's size, line and ways, L1 first. *)
  let geometry (m : MM.t) =
    [
      (m.MM.l1_size, m.MM.line, m.MM.l1_ways);
      (m.MM.l2_size, m.MM.line, m.MM.l2_ways);
      (m.MM.l3_size, m.MM.line, m.MM.l3_ways);
    ]

  let create ?geometry:g (m : MM.t) =
    let g = Option.value g ~default:(geometry m) in
    {
      model = m;
      levels =
        Array.of_list
          (List.map
             (fun (size, line, ways) ->
               Ref_lru.create ~line ~sets:(size / (line * ways)) ~ways)
             g);
      accesses = 0;
      mem_cycles = 0.;
    }

  let probe t ~streamed addr =
    t.accesses <- t.accesses + 1;
    if not (Ref_lru.access t.levels.(0) addr) then begin
      let m = t.model in
      let latency =
        if Ref_lru.access t.levels.(1) addr then m.MM.lat_l2
        else if Ref_lru.access t.levels.(2) addr then m.MM.lat_l3
        else m.MM.lat_mem
      in
      t.mem_cycles <-
        t.mem_cycles
        +. (if streamed then MM.stream_miss_cycles m else latency /. m.MM.mlp)
    end

  (* The walked ops, read from the IR once. A value is an index into the
     walk's environment; every map keeps its operands' indices. *)
  type step =
    | For of int * (Affine_map.t * int array) * (Affine_map.t * int array)
        * int * step list  (** iv, lower and upper bound, step, body *)
    | Access of int * int list * (Affine_map.t * int array) * bool
        (** buffer base, shape, subscripts, streamed *)
    | Const of int * int
    | Arith of (int -> int -> int) * int * int * int
    | Apply of int * (Affine_map.t * int array)

  (* [iv]: the innermost enclosing loop's induction variable. *)
  let rec decode bases index iv (op : Core.op) =
    let module A = Affine.Affine_ops in
    let applied (map, args) = (map, Array.of_list (List.map index args)) in
    match op.Core.o_name with
    | "affine.for" ->
        Some
          (For
             ( index (A.for_iv op),
               applied (A.for_lb op),
               applied (A.for_ub op),
               A.for_step op,
               List.filter_map
                 (decode bases index (Some (A.for_iv op)))
                 (Affine.Loops.body_ops op) ))
    | "affine.load" | "affine.store" ->
        let memref = A.access_memref op in
        let streamed =
          match Option.map (fun iv -> Affine.Loops.access_stride_wrt iv op) iv with
          | Some (Some s) -> abs s <= 2
          | _ -> false
        in
        Some
          (Access
             ( Hashtbl.find bases memref.Core.v_id,
               Option.get (Typ.static_shape memref.Core.v_typ),
               applied (A.access_map op, A.access_indices op),
               streamed ))
    | "arith.constant" -> (
        match Core.attr op "value" with
        | Attr.Int i -> Some (Const (index (Core.result op 0), i))
        | _ -> None)
    | "arith.addi" | "arith.subi" | "arith.muli" | "arith.floordivsi"
    | "arith.remsi" ->
        let f =
          match op.Core.o_name with
          | "arith.addi" -> ( + )
          | "arith.subi" -> ( - )
          | "arith.muli" -> ( * )
          | "arith.floordivsi" -> Affine_expr.floordiv
          | _ -> Affine_expr.floormod
        in
        Some
          (Arith
             ( f,
               index (Core.operand op 0),
               index (Core.operand op 1),
               index (Core.result op 0) ))
    | "affine.apply" ->
        Some
          (Apply
             ( index (Core.result op 0),
               applied
                 ( Attr.get_map (Core.attr op "map"),
                   Array.to_list op.Core.o_operands ) ))
    | _ -> None

  (* Walks [func] once; every access probes each of [ts]. *)
  let run ts func =
    let bases = Machine.Trace.assign_addresses func in
    let indices = Hashtbl.create 64 in
    let index (v : Core.value) =
      match Hashtbl.find_opt indices v.Core.v_id with
      | Some i -> i
      | None ->
          let i = Hashtbl.length indices in
          Hashtbl.replace indices v.Core.v_id i;
          i
    in
    let steps =
      List.filter_map (decode bases index None)
        (Core.ops_of_block (Core.func_entry func))
    in
    let env = Array.make (Hashtbl.length indices) 0 in
    let eval ((map : Affine_map.t), args) =
      let dims = Array.map (fun i -> env.(i)) args in
      List.map (Affine_expr.eval ~dims ~syms:[||]) map.Affine_map.exprs
    in
    let rec exec = function
      | For (iv, lb, ub, step, body) ->
          let i = ref (List.fold_left max min_int (eval lb)) in
          while !i < List.fold_left min max_int (eval ub) do
            env.(iv) <- !i;
            List.iter exec body;
            i := !i + step
          done
      | Access (base, shape, subs, streamed) ->
          let offset =
            List.fold_left2 (fun acc x n -> (acc * n) + x) 0 (eval subs) shape
          in
          let addr = base + (4 * offset) in
          List.iter (fun t -> probe t ~streamed addr) ts
      | Const (r, i) -> env.(r) <- i
      | Arith (f, x, y, r) -> env.(r) <- f env.(x) env.(y)
      | Apply (r, map) -> env.(r) <- List.hd (eval map)
    in
    List.iter exec steps
end

type lru_op =
  | Fresh of int * int * int
  | Repeat of int
  | Rank of int * int
      (** [Rank (set, p)]: the line at recency position [p] of the
          reference's [set], most recent at 0; a line the set does not
          hold (a miss) when it holds at most [p] lines *)
  | Reset

(* Streams over at most three sets and [ways + 3] lines per set: heavy
   same-set conflicts; [Repeat] re-touches the previous line at a new
   offset, always a first-way hit, the case that writes nothing. *)
let gen_lru_ops ~line ~sets ~ways =
  let open QCheck.Gen in
  let fresh =
    map3
      (fun set tag off -> Fresh (set, tag, off))
      (int_bound (min sets 3 - 1))
      (int_bound (ways + 2))
      (int_bound (line - 1))
  in
  list_size (int_range 1 400)
    (frequency
       [
         (40, fresh);
         (20, map (fun o -> Repeat o) (int_bound (line - 1)));
         (1, return Reset);
       ])

(* Rounds that fill one set to [k] lines (each a miss into a partly
   filled set), then touch its lines by recency position, so a hit
   rotates the set from every way, mixed with misses that evict from a
   full or a partly filled set. A round starts from a reset a third of
   the time. *)
let gen_rank_ops ~line:_ ~sets ~ways =
  let open QCheck.Gen in
  let touch set =
    frequency
      [
        (4, map (fun p -> Rank (set, p)) (int_bound (ways - 1)));
        (1, return (Rank (set, ways)));
      ]
  in
  let round =
    int_bound (min sets 2 - 1) >>= fun set ->
    map3
      (fun reset k touches ->
        (if reset then [ Reset ] else [])
        @ List.init k (fun _ -> Rank (set, ways))
        @ touches)
      (frequency [ (1, return true); (2, return false) ])
      (int_bound ways)
      (list_size (int_range 1 (3 * ways)) (touch set))
  in
  map List.concat (list_size (int_range 1 8) round)

let print_lru_op = function
  | Fresh (set, tag, off) -> Printf.sprintf "set%d/tag%d+%d" set tag off
  | Repeat off -> Printf.sprintf "again+%d" off
  | Rank (set, p) -> Printf.sprintf "set%d@%d" set p
  | Reset -> "reset"

(* Replays [ops] on both models; returns the first disagreement. *)
let lru_disagreement ~line ~sets ~ways ops =
  let c = C.create ~size:(line * sets * ways) ~line ~ways in
  let r = Ref_lru.create ~line ~sets ~ways in
  let prev = ref 0 in
  let rec go i = function
    | [] -> None
    | Reset :: rest ->
        C.reset c;
        Ref_lru.reset r;
        go (i + 1) rest
    | op :: rest ->
        let addr =
          match op with
          | Fresh (set, tag, off) -> (((tag * sets) + set) * line) + off
          | Repeat off -> (!prev / line * line) + off
          | Rank (set, p) ->
              let held = r.Ref_lru.lists.(set) in
              let line_id =
                match List.nth_opt held p with
                | Some id -> id
                | None ->
                    (* The first line of the set it does not hold. *)
                    let rec fresh tag =
                      let id = (tag * sets) + set in
                      if List.mem id held then fresh (tag + 1) else id
                    in
                    fresh 0
              in
              line_id * line
          | Reset -> assert false
        in
        prev := addr;
        let got = C.access c addr and want = Ref_lru.access r addr in
        if got <> want then
          Some
            (Printf.sprintf "op %d (addr %d): hit %b, reference %b" i addr got
               want)
        else if
          C.accesses c <> r.Ref_lru.accesses || C.misses c <> r.Ref_lru.misses
        then
          Some
            (Printf.sprintf "op %d: %d/%d accesses/misses, reference %d/%d" i
               (C.accesses c) (C.misses c) r.Ref_lru.accesses r.Ref_lru.misses)
        else go (i + 1) rest
  in
  go 0 ops

(* (line, sets, ways) *)
let lru_geometries = [ (16, 4, 1); (32, 8, 2); (64, 4, 8); (64, 2, 16) ]

(* [what] names the stream [gen] draws, empty for the plain one. *)
let prop_lru_matches_reference (what, gen) (line, sets, ways) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%d-way cache = reference LRU%s (%dB lines, %d sets)"
         ways what line sets)
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map print_lru_op ops))
       (gen ~line ~sets ~ways))
    (fun ops ->
      match lru_disagreement ~line ~sets ~ways ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let test_lru_across_reset () =
  (* The same stream before and after a reset: the reset cache must be
     indistinguishable from a fresh one, every set's order included. *)
  let stream =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 7 |])
      (gen_lru_ops ~line:64 ~sets:4 ~ways:8)
    |> List.filter (fun op -> op <> Reset)
    |> List.cons (Fresh (0, 0, 0))
  in
  match
    lru_disagreement ~line:64 ~sets:4 ~ways:8 (stream @ (Reset :: stream))
  with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let func_of src name =
  let m = Met.Emit_affine.translate src in
  Option.get (Core.find_func m name)

let test_vectorizability () =
  (* mm's innermost k loop: B[k][j] has stride N w.r.t. k -> not
     vectorizable. After interchange (j innermost) it would be. *)
  let f = func_of (W.mm ~ni:8 ~nj:8 ~nk:8 ()) "mm" in
  let loops = Affine.Loops.perfect_nest (List.hd (Affine.Loops.top_level_loops f)) in
  let innermost = List.nth loops 2 in
  Alcotest.(check bool) "k-innermost gemm not vectorizable" false
    (Machine.Trace.is_vectorizable innermost);
  (* A simple copy loop is vectorizable. *)
  let f2 =
    func_of
      "void f(float a[64], float b[64]) { for (int i = 0; i < 64; ++i) a[i] \
       = b[i]; }"
      "f"
  in
  let l2 = List.hd (Affine.Loops.top_level_loops f2) in
  Alcotest.(check bool) "copy loop vectorizable" true
    (Machine.Trace.is_vectorizable l2);
  (* Strided access defeats vectorization. *)
  let f3 =
    func_of
      "void f(float a[128]) { for (int i = 0; i < 64; ++i) a[2*i] = 1.0; }"
      "f"
  in
  let l3 = List.hd (Affine.Loops.top_level_loops f3) in
  Alcotest.(check bool) "strided store not vectorizable" false
    (Machine.Trace.is_vectorizable l3)

let test_trace_counts_gemm () =
  let n = 16 in
  let f = func_of (W.mm ~ni:n ~nj:n ~nk:n ()) "mm" in
  let report = Machine.Perf.time_func MM.intel_i9 f in
  let s = report.Machine.Perf.stats in
  let iters = float_of_int (n * n * n) in
  Alcotest.(check (float 0.)) "flops = 2*n^3"
    (2. *. iters)
    (s.Machine.Trace.flops_scalar +. s.Machine.Trace.flops_vector);
  Alcotest.(check (float 0.)) "accesses = 4 per iteration" (4. *. iters)
    s.Machine.Trace.accesses;
  Alcotest.(check bool) "time positive" true (report.Machine.Perf.seconds > 0.)

let test_tiling_improves_gemm_locality () =
  (* The load-bearing property behind Figure 9: tiled gemm beats naive
     once the working set exceeds the cache (at 64 everything fits and
     tiling is neutral; 128 is past L1). *)
  let n = 128 in
  let src = W.mm ~ni:n ~nj:n ~nk:n () in
  let naive = func_of src "mm" in
  let tiled = func_of src "mm" in
  Transforms.Loop_tile.tile_all tiled ~size:16;
  let t_naive = (Machine.Perf.time_func MM.amd_2920x naive).Machine.Perf.seconds in
  let t_tiled = (Machine.Perf.time_func MM.amd_2920x tiled).Machine.Perf.seconds in
  Alcotest.(check bool)
    (Printf.sprintf "tiled (%.2e) < naive (%.2e)" t_tiled t_naive)
    true (t_tiled < t_naive)

let test_blas_model_orderings () =
  let m = MM.amd_2920x in
  let level3 = Machine.Blas_model.gemm_seconds m ~m:256 ~n:256 ~k:256 in
  let level3_gflops = 2. *. (256. ** 3.) /. level3 /. 1e9 in
  Alcotest.(check bool) "gemm below library peak" true
    (level3_gflops <= m.MM.blas_peak_gflops);
  Alcotest.(check bool) "gemm above half peak at 256" true
    (level3_gflops > 0.3 *. m.MM.blas_peak_gflops);
  (* gemv is memory bound: far below peak. *)
  let l2_time = Machine.Blas_model.gemv_seconds m ~m:256 ~n:256 in
  let l2_gflops = 2. *. (256. ** 2.) /. l2_time /. 1e9 in
  Alcotest.(check bool) "gemv memory bound" true
    (l2_gflops < 0.2 *. m.MM.blas_peak_gflops);
  (* Call overhead dominates tiny calls. *)
  let tiny = Machine.Blas_model.gemm_seconds m ~m:4 ~n:4 ~k:4 in
  Alcotest.(check bool) "overhead floor" true
    (tiny >= m.MM.blas_call_overhead_s)

let test_blis_codegen_between_loops_and_library () =
  let m = MM.amd_2920x in
  let lib = Machine.Blas_model.gemm_seconds m ~m:256 ~n:256 ~k:256 in
  let blis = Machine.Blas_model.blis_codegen_gemm_seconds m ~m:256 ~n:256 ~k:256 in
  Alcotest.(check bool) "blis slower than vendor library" true (blis > lib)

let test_figure9_headline_ordering () =
  (* gemm at a modest size: clang < pluto-default < mlt-blas, and
     mlt-blas is the fastest of all configurations (level-3 story). *)
  let src = W.gemm ~ni:128 ~nj:128 ~nk:128 () in
  let time c =
    let r, _ =
      Mlt.Pipeline.time_schedule_ext (Mlt.Pipeline.Config c) MM.amd_2920x src
    in
    r.Machine.Perf.seconds
  in
  let t_clang = time Mlt.Pipeline.Clang_O3 in
  let t_pluto = time Mlt.Pipeline.Pluto_default in
  let t_blas = time Mlt.Pipeline.Mlt_blas in
  Alcotest.(check bool)
    (Printf.sprintf "pluto (%.2e) < clang (%.2e)" t_pluto t_clang)
    true (t_pluto < t_clang);
  Alcotest.(check bool)
    (Printf.sprintf "blas (%.2e) < pluto (%.2e)" t_blas t_pluto)
    true (t_blas < t_pluto)

let test_level2_overhead_story () =
  (* The paper's §5.2 level-2 story: the library call overhead keeps
     MLT-Blas from beating the autotuned loop code on atax — Pluto-best
     yields code "as fast or faster" than the BLAS substitution. *)
  let src = W.atax ~m:128 ~n:128 () in
  let time c =
    let r, _ =
      Mlt.Pipeline.time_schedule_ext (Mlt.Pipeline.Config c) MM.amd_2920x src
    in
    r.Machine.Perf.seconds
  in
  let t_blas = time Mlt.Pipeline.Mlt_blas in
  let t_best = time Mlt.Pipeline.Pluto_best in
  Alcotest.(check bool)
    (Printf.sprintf "pluto-best (%.2e) <= blas (%.2e) on level-2" t_best t_blas)
    true (t_best <= t_blas)

(* ---- pinned reports --------------------------------------------------

   Exact Machine.Perf reports for small kernels that exercise the access
   and bound shapes the Figure-9 cells may not: tile-32 [min] upper
   bounds, a triangular nest with a [max] lower bound, a Fig. 8
   linearized subscript, and non-linear (floordiv/mod) access offsets and
   [affine.apply] maps. The hex floats were recorded from the simulator's
   per-subscript tree-walking evaluator and scan-only cache model; the
   staged simulator must match every field bit for bit. *)

let pinned_triangular =
  {|builtin.module {
  func.func @tri(%C: memref<80x80xf32>) {
    affine.for %i = 0 to 80 {
      affine.for %j = 0 to min(%i + 1, 80) {
        affine.for %k = max(%j - 16, 0) to %j + 1 {
          %0 = affine.load %C[%i, %k] : memref<80x80xf32>
          %1 = arith.mulf %0, %0 : f32
          affine.store %1, %C[%k, %j] : memref<80x80xf32>
          affine.yield
        }
        affine.yield
      }
      affine.yield
    }
    func.return
  }
}|}

let pinned_nonlinear =
  {|builtin.module {
  func.func @nonlin(%A: memref<64x64xf32>, %B: memref<4096xf32>) {
    affine.for %i = 0 to 64 {
      affine.for %j = 0 to 64 {
        %p = affine.apply %i * 64 + %j mod 61
        %0 = affine.load %A[%j floordiv 4 + %i mod 3 * 16, %i * 3 mod 64] : memref<64x64xf32>
        %1 = affine.load %B[%p] : memref<4096xf32>
        %2 = arith.addf %0, %1 : f32
        affine.store %2, %B[(%i * 64 + %j) floordiv 2] : memref<4096xf32>
        affine.yield
      }
      affine.yield
    }
    func.return
  }
}|}

let pinned_kernels () =
  let of_ir src name =
    Option.get (Core.find_func (Parser.parse_module src) name)
  in
  let tiled = func_of (W.mm ~ni:72 ~nj:72 ~nk:72 ()) "mm" in
  Transforms.Loop_tile.tile_all tiled ~size:32;
  [
    ("mm-tile32", tiled);
    ("triangular", of_ir pinned_triangular "tri");
    ( "darknet-linearized",
      func_of (W.darknet_gemm ~m:48 ~n:56 ~k:40 ()) "darknet_gemm" );
    ("nonlinear", of_ir pinned_nonlinear "nonlin");
  ]

let report_fields (r : Machine.Perf.report) =
  let s = r.Machine.Perf.stats in
  Machine.Trace.
    [|
      r.Machine.Perf.seconds;
      r.Machine.Perf.loop_seconds;
      r.Machine.Perf.library_seconds;
      s.flops_scalar;
      s.flops_vector;
      s.mem_cycles;
      s.iterations;
      s.accesses;
    |]

let report_field_names =
  [|
    "seconds"; "loop_seconds"; "library_seconds"; "flops_scalar";
    "flops_vector"; "mem_cycles"; "iterations"; "accesses";
  |]

let pinned_expected : (string * string * float array) list =
  [
    ( "mm-tile32",
      "intel-i9-9900k",
      [|
        0x1.4ae1082678731p-12; 0x1.4ae1082678731p-12; 0x0p+0; 0x1.6c8p+19;
        0x0p+0; 0x1.48d19999999c3p+14; 0x1.7c5bcp+18; 0x1.6c8p+20;
      |] );
    ( "mm-tile32",
      "amd-2920x",
      [|
        0x1.1503d732117e2p-12; 0x1.1503d732117e2p-12; 0x0p+0; 0x1.6c8p+19;
        0x0p+0; 0x1.a4f3fffffff88p+14; 0x1.7c5bcp+18; 0x1.6c8p+20;
      |] );
    ( "triangular",
      "intel-i9-9900k",
      [|
        0x1.b1c8c3f9d7508p-16; 0x1.b1c8c3f9d7508p-16; 0x0p+0; 0x1.5eap+15;
        0x0p+0; 0x1.16be2be2be2bap+12; 0x1.789p+15; 0x1.5eap+16;
      |] );
    ( "triangular",
      "amd-2920x",
      [|
        0x1.6b2b0f3c5501fp-16; 0x1.6b2b0f3c5501fp-16; 0x0p+0; 0x1.5eap+15;
        0x0p+0; 0x1.6f6db6db6db6ep+12; 0x1.789p+15; 0x1.5eap+16;
      |] );
    ( "darknet-linearized",
      "intel-i9-9900k",
      [|
        0x1.8a27192cdb0dcp-17; 0x1.8a27192cdb0dcp-17; 0x0p+0; 0x0p+0;
        0x1.a4p+17; 0x1.602ecfb9c866dp+11; 0x1.e18p+13; 0x1.a4p+18;
      |] );
    ( "darknet-linearized",
      "amd-2920x",
      [|
        0x1.0ddf0bc8a217dp-16; 0x1.0ddf0bc8a217dp-16; 0x0p+0; 0x0p+0;
        0x1.a4p+17; 0x1.06ea0ea0ea118p+12; 0x1.e18p+13; 0x1.a4p+18;
      |] );
    ( "nonlinear",
      "intel-i9-9900k",
      [|
        0x1.0e061f1b73824p-18; 0x1.0e061f1b73824p-18; 0x0p+0; 0x1p+12;
        0x0p+0; 0x1.42a9b101767f9p+13; 0x1.04p+12; 0x1.8p+13;
      |] );
    ( "nonlinear",
      "amd-2920x",
      [|
        0x1.0cffc3ca60216p-18; 0x1.0cffc3ca60216p-18; 0x0p+0; 0x1p+12;
        0x0p+0; 0x1.98a0ea0ea0eebp+13; 0x1.04p+12; 0x1.8p+13;
      |] );
  ]

let check_pinned kernels expected =
  List.iter
    (fun (kname, f) ->
      List.iter
        (fun (m : MM.t) ->
          let got = report_fields (Machine.Perf.time_func m f) in
          match
            List.find_opt
              (fun (k, mn, _) -> k = kname && mn = m.MM.name)
              expected
          with
          | None -> Alcotest.failf "%s/%s: no pinned report" kname m.MM.name
          | Some (_, _, want) ->
              Array.iteri
                (fun i w ->
                  if Int64.bits_of_float w <> Int64.bits_of_float got.(i) then
                    Alcotest.failf "%s/%s: %s is %h, pinned %h" kname
                      m.MM.name report_field_names.(i) got.(i) w)
                want)
        MM.platforms)
    kernels

let test_pinned_reports () = check_pinned (pinned_kernels ()) pinned_expected

(* Loop-range edge cases of the strided innermost runs: a step-3 loop
   whose trip count is not a multiple of its step, inner loops with empty
   ranges (lb > ub, lb = ub, a constant empty range), and a tile-32 nest
   with [min] remainder bounds and a load and a store to the same cell.
   The hex floats were recorded from the simulator as it was before
   straight-line innermost loops ran strided, when every access went
   through its own closure. *)

let pinned_step3 =
  {|builtin.module {
  func.func @step3(%A: memref<50x48xf32>, %B: memref<48x50xf32>, %C: memref<50x48xf32>) {
    affine.for %i = 0 to 50 {
      affine.for %j = 1 to 47 step 3 {
        %0 = affine.load %A[%i, %j] : memref<50x48xf32>
        %1 = affine.load %B[%j, %i] : memref<48x50xf32>
        %2 = arith.mulf %0, %1 : f32
        affine.store %2, %C[%i, %j] : memref<50x48xf32>
        affine.yield
      }
      affine.yield
    }
    func.return
  }
}|}

let pinned_empty =
  {|builtin.module {
  func.func @empty(%A: memref<40x24xf32>, %x: memref<24xf32>) {
    affine.for %i = 0 to 40 {
      affine.for %j = %i to 24 {
        %0 = affine.load %A[%i, %j] : memref<40x24xf32>
        %1 = affine.load %x[%j] : memref<24xf32>
        %2 = arith.addf %0, %1 : f32
        affine.store %2, %x[%j] : memref<24xf32>
        affine.yield
      }
      affine.for %k = 7 to 7 {
        %3 = affine.load %A[%i, %k] : memref<40x24xf32>
        affine.store %3, %x[%k] : memref<24xf32>
        affine.yield
      }
      affine.yield
    }
    func.return
  }
}|}

let pinned_remainder =
  {|builtin.module {
  func.func @rem(%A: memref<70x45xf32>, %B: memref<45x70xf32>) {
    affine.for %ii = 0 to 70 step 32 {
      affine.for %jj = 0 to 45 step 32 {
        affine.for %i = %ii to min(%ii + 32, 70) {
          affine.for %j = %jj to min(%jj + 32, 45) {
            %0 = affine.load %A[%i, %j] : memref<70x45xf32>
            %1 = affine.load %B[%j, %i] : memref<45x70xf32>
            %2 = arith.addf %0, %1 : f32
            affine.store %2, %B[%j, %i] : memref<45x70xf32>
            affine.yield
          }
          affine.yield
        }
        affine.yield
      }
      affine.yield
    }
    func.return
  }
}|}

let edge_kernels () =
  let of_ir src name =
    Option.get (Core.find_func (Parser.parse_module src) name)
  in
  [
    ("step3-ragged", of_ir pinned_step3 "step3");
    ("empty-inner", of_ir pinned_empty "empty");
    ("tile32-remainder", of_ir pinned_remainder "rem");
  ]

let edge_expected : (string * string * float array) list =
  [
    ( "step3-ragged",
      "intel-i9-9900k",
      [|
        0x1.a9628e0f36fd2p-20; 0x1.a9628e0f36fd2p-20; 0x0p+0; 0x1.9p+9;
        0x0p+0; 0x1.2f6db6db6db5fp+12; 0x1.a9p+9; 0x1.2cp+11;
      |] );
    ( "step3-ragged",
      "amd-2920x",
      [|
        0x1.c8e017c188d91p-20; 0x1.c8e017c188d91p-20; 0x0p+0; 0x1.9p+9;
        0x0p+0; 0x1.9449249249242p+12; 0x1.a9p+9; 0x1.2cp+11;
      |] );
    ( "empty-inner",
      "intel-i9-9900k",
      [|
        0x1.677c4028686a1p-24; 0x1.677c4028686a1p-24; 0x0p+0; 0x0p+0;
        0x1.2cp+8; 0x1.bfa2608c6f2dp+7; 0x1.36p+6; 0x1.c2p+9;
      |] );
    ( "empty-inner",
      "amd-2920x",
      [|
        0x1.9b308a45a1916p-24; 0x1.9b308a45a1916p-24; 0x0p+0; 0x0p+0;
        0x1.2cp+8; 0x1.4e2be2be2be29p+8; 0x1.36p+6; 0x1.c2p+9;
      |] );
    ( "tile32-remainder",
      "intel-i9-9900k",
      [|
        0x1.f5db19007d79p-19; 0x1.f5db19007d79p-19; 0x0p+0; 0x1.89cp+11;
        0x0p+0; 0x1.3d8e9536202f8p+13; 0x1.9c6p+11; 0x1.275p+13;
      |] );
    ( "tile32-remainder",
      "amd-2920x",
      [|
        0x1.f59b5c3badfb9p-19; 0x1.f59b5c3badfb9p-19; 0x0p+0; 0x1.89cp+11;
        0x0p+0; 0x1.8f19d41d41d69p+13; 0x1.9c6p+11; 0x1.275p+13;
      |] );
  ]

let test_pinned_edge_reports () = check_pinned (edge_kernels ()) edge_expected

(* ---- strided innermost runs = the closure path -------------------------

   A straight-line innermost loop (accesses with linear addresses, float
   arithmetic, float constants) runs as one strided probe loop over its
   access sites; any other body runs op by op through staged closures. A
   dead [affine.apply] in the innermost body forces the closure path, so
   each random nest is simulated both ways and the reports must agree bit
   for bit on both machines. *)

type site = {
  store : bool;
  buf : int;
  subs : (int * int list) list;  (** per dim: constant, coefficient per iv *)
}

type inner_bounds =
  | Const of int * int  (** may be empty: lb >= ub *)
  | Remainder of int  (** [%o to min(%o + tile, n)] under [0 to n step tile] *)
  | Shifted  (** [max(%o - 1, 1) to %o + 3] *)
  | Growing of int  (** [0 to min(%o + 1, cap)]: the trip count grows *)
  | Growing_on of int * int
      (** [Growing_on (k, cap)]: [0 to min(%ok + 1, cap)], on outer
          loop [k] *)

type nest = {
  shapes : int list array;
  outer : (int * int * int) list;  (** lb, ub, step *)
  inner : inner_bounds;
  step : int;
  sites : site list;
  sibling : site list;
      (** when non-empty, a second inner loop [0 to 12] after the first,
          reading these sites *)
}

(* Moves every subscript of [n] into its dimension: per buffer and dimension,
   shifts the subscripts' constants up by the most negative value they
   can take and widens the extent past the largest. Each iv's interval
   holds every value it takes. Coefficients, trip counts and which sites
   share a cell stay as drawn. *)
let fit_nest n =
  let outer = List.map (fun (lb, ub, _) -> (lb, max lb (ub - 1))) n.outer in
  let o_hi = List.fold_left (fun _ (_, hi) -> hi) 0 outer in
  let inner =
    match n.inner with
    | Const (lb, ub) -> (lb, max lb (ub - 1))
    | Remainder t -> (0, o_hi + t)
    | Shifted -> (0, o_hi + 3)
    | Growing cap | Growing_on (_, cap) -> (0, cap)
  in
  let placed =
    List.map (fun s -> (s, outer @ [ inner ])) n.sites
    @ List.map (fun s -> (s, outer @ [ (0, 11) ])) n.sibling
  in
  let span (c, ks) ivs =
    List.fold_left2
      (fun (lo, hi) k (a, b) ->
        (lo + min (k * a) (k * b), hi + max (k * a) (k * b)))
      (c, c) ks ivs
  in
  let fit buf dim extent =
    List.fold_left
      (fun (lo, hi) (s, ivs) ->
        if s.buf <> buf then (lo, hi)
        else
          let l, h = span (List.nth s.subs dim) ivs in
          (min lo l, max hi h))
      (0, extent - 1) placed
  in
  let fits = Array.mapi (fun b shape -> List.mapi (fit b) shape) n.shapes in
  let shift s =
    {
      s with
      subs =
        List.mapi
          (fun d (c, ks) -> (c - fst (List.nth fits.(s.buf) d), ks))
          s.subs;
    }
  in
  {
    n with
    shapes = Array.map (List.map (fun (lo, hi) -> hi - lo + 1)) fits;
    sites = List.map shift n.sites;
    sibling = List.map shift n.sibling;
  }

let gen_nest =
  let open QCheck.Gen in
  let* shapes =
    array_size (int_range 1 3)
      (oneof
         [
           map (fun n -> [ n ]) (int_range 8 200);
           map2 (fun a b -> [ a; b ]) (int_range 4 24) (int_range 4 24);
           map3 (fun a b c -> [ a; b; c ]) (int_range 3 12) (int_range 3 12)
             (int_range 3 12);
         ])
  in
  let* outer =
    list_size (int_range 0 2)
      (map3
         (fun lb len step -> (lb, lb + len, step))
         (int_bound 2) (int_bound 8) (int_range 1 3))
  in
  let* inner =
    frequency
      ((3, map2 (fun lb ub -> Const (lb, ub)) (int_bound 6) (int_bound 14))
      ::
      (if outer = [] then []
       else
         [
           (2, map (fun t -> Remainder t) (int_range 2 5));
           (1, return Shifted);
         ]))
  in
  (* The remainder tile is the last outer loop's step. *)
  let outer =
    match (inner, List.rev outer) with
    | Remainder t, (_, ub, _) :: rest -> List.rev ((0, ub + 3, t) :: rest)
    | _ -> outer
  in
  let n_ivs = List.length outer + 1 in
  let* step = int_range 1 4 in
  let gen_site =
    let* store = map (fun k -> k < 2) (int_bound 4) in
    let* buf = int_bound (Array.length shapes - 1) in
    let+ subs =
      flatten_l
        (List.map
           (fun _ ->
             pair (int_bound 4) (list_repeat n_ivs (int_range (-2) 2)))
           shapes.(buf))
    in
    { store; buf; subs }
  in
  let* sites = list_size (int_range 1 4) gen_site in
  (* Sometimes store to the cell the first load read. *)
  let+ same_cell = bool in
  let sites =
    match List.find_opt (fun s -> not s.store) sites with
    | Some l when same_cell -> sites @ [ { l with store = true } ]
    | _ -> sites
  in
  { shapes; outer; inner; step; sites; sibling = [] }

let render_nest ~dead n =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.bprintf b fmt in
  let ty i =
    Printf.sprintf "memref<%sxf32>"
      (String.concat "x" (List.map string_of_int n.shapes.(i)))
  in
  let n_outer = List.length n.outer in
  let iv k = if k = n_outer then "%i" else Printf.sprintf "%%o%d" k in
  let args =
    Array.to_list (Array.mapi (fun i _ -> Printf.sprintf "%%B%d: %s" i (ty i)) n.shapes)
  in
  pr "builtin.module {\n  func.func @k(%s) {\n" (String.concat ", " args);
  List.iteri
    (fun k (lb, ub, step) ->
      pr "affine.for %s = %d to %d step %d {\n" (iv k) lb ub step)
    n.outer;
  let o = iv (n_outer - 1) in
  let body ~inner_iv sites =
    let iv k = if k = n_outer then inner_iv else iv k in
    if dead then pr "%%dead = affine.apply %s + 1\n" inner_iv;
    pr "%%acc0 = arith.constant 1.5 : f32\n";
    let sub (c, ks) =
      let term k x = if x = 0 then [] else [ Printf.sprintf "%s * %d" (iv k) x ] in
      String.concat " + " (string_of_int c :: List.concat (List.mapi term ks))
    in
    let acc = ref 0 in
    List.iteri
      (fun j s ->
        let subs = String.concat ", " (List.map sub s.subs) in
        if s.store then
          pr "affine.store %%acc%d, %%B%d[%s] : %s\n" !acc s.buf subs (ty s.buf)
        else begin
          pr "%%v%d = affine.load %%B%d[%s] : %s\n" j s.buf subs (ty s.buf);
          pr "%%acc%d = arith.%s %%acc%d, %%v%d : f32\n" (!acc + 1)
            (if j mod 2 = 0 then "addf" else "mulf") !acc j;
          incr acc
        end)
      sites;
    pr "affine.yield\n}\n"
  in
  (match n.inner with
  | Const (lb, ub) -> pr "affine.for %%i = %d to %d" lb ub
  | Remainder t ->
      let _, ub, _ = List.nth n.outer (n_outer - 1) in
      pr "affine.for %%i = %s to min(%s + %d, %d)" o o t ub
  | Shifted -> pr "affine.for %%i = max(%s - 1, 1) to %s + 3" o o
  | Growing cap -> pr "affine.for %%i = 0 to min(%s + 1, %d)" o cap
  | Growing_on (k, cap) ->
      pr "affine.for %%i = 0 to min(%s + 1, %d)" (iv k) cap);
  pr " step %d {\n" n.step;
  body ~inner_iv:"%i" n.sites;
  if n.sibling <> [] then begin
    pr "affine.for %%t = 0 to 12 {\n";
    body ~inner_iv:"%t" n.sibling
  end;
  List.iter (fun _ -> pr "affine.yield\n}\n") n.outer;
  pr "func.return\n}\n}\n";
  Buffer.contents b

(* Nests whose inner-loop entries replay. Each site either ignores the
   outer ivs or moves by one element per outer iteration, less than a
   line, with an inner delta of whole lines, so consecutive entries often
   touch the same line sequence. The buffers fit in L1, so an entry after
   the first usually misses nowhere, except where an inner delta of 4 KB
   (the L1 set stride) thrashes one set on every entry. Inner bounds are
   constant, or grow up to a cap so that the trip count changes. *)
let gen_replay_nest =
  let open QCheck.Gen in
  let* shapes =
    array_size (int_range 1 3)
      (oneof
         [
           map (fun n -> [ n ]) (int_range 64 400);
           map2 (fun a b -> [ a; b ]) (int_range 2 6) (int_range 16 64);
         ])
  in
  let* outer =
    list_size (int_range 1 2)
      (map3
         (fun lb len step -> (lb, lb + len, step))
         (int_bound 2) (int_range 1 20) (int_range 1 2))
  in
  let n_outer = List.length outer in
  let* inner =
    frequency
      [
        (3, map2 (fun lb len -> Const (lb, lb + len)) (int_bound 4) (int_range 1 12));
        (1, map (fun cap -> Growing cap) (int_range 2 12));
      ]
  in
  let* step = int_range 1 4 in
  let gen_site =
    let* store = map (fun k -> k < 2) (int_bound 4) in
    let* buf = int_bound (Array.length shapes - 1) in
    let rank = List.length shapes.(buf) in
    let* moves = bool in
    let* outer_ks =
      list_repeat n_outer (if moves then int_bound 1 else return 0)
    in
    let* inner_k =
      if moves then oneofl [ 0; 16; -16; 32; 1024 ] else int_range (-2) 2
    in
    let+ consts = list_repeat rank (int_bound 4) in
    let subs =
      List.mapi
        (fun d c ->
          if d = rank - 1 then (c, outer_ks @ [ inner_k ])
          else (c, List.init (n_outer + 1) (fun _ -> 0)))
        consts
    in
    { store; buf; subs }
  in
  let* sites = list_size (int_range 1 4) gen_site in
  (* Sometimes a sibling loop walks the set of a site's first line, 4 KB
     (the L1 set stride) per iteration, and evicts that line. *)
  let+ sibling =
    let* k = int_bound (List.length sites - 1) in
    let s = List.nth sites k in
    let last = List.length s.subs - 1 in
    let walk =
      {
        s with
        store = false;
        subs =
          List.mapi
            (fun d (c, ks) ->
              if d = last then
                (c, List.filteri (fun i _ -> i < n_outer) ks @ [ 1024 ])
              else (c, ks))
            s.subs;
      }
    in
    oneofl [ []; [ walk ] ]
  in
  { shapes; outer; inner; step; sites; sibling }

(* Nests whose sub-walks below an outer level repeat. Every buffer is
   flat; a site's subscript takes, at one outer level, a move of less
   than a line (one or two elements) or none, at the levels above it
   none or whole lines, and at every level below it, the inner loop
   included, whole lines: 16 elements (one 64-byte line), 32, or 1024
   (the 4 KB L1 set stride, so one set thrashes). Other sites are
   stayers (inner moves of -2 to 2 elements, outer moves of 0 or whole
   lines) or walk whole lines throughout. So an outer level often
   repeats its sub-walk for a run of iterations, and an entry's movers
   often repeat while a stayer moves on by whole lines. The inner
   bounds may read any outer iv, and a sibling loop sometimes walks the
   set of a site's first line between two entries. *)
let gen_level_nest =
  let open QCheck.Gen in
  let* n_outer = int_range 1 3 in
  let* outer =
    list_repeat n_outer
      (map2
         (fun len step -> (0, len, step))
         (int_range 2 10)
         (frequency [ (3, return 1); (1, return 2) ]))
  in
  let* inner =
    frequency
      [
        (4, map2 (fun lb len -> Const (lb, lb + len)) (int_bound 2) (int_range 1 12));
        (1, map2 (fun k cap -> Growing_on (k, cap)) (int_bound (n_outer - 1))
             (int_range 2 12));
      ]
  in
  let* step = int_range 1 2 in
  (* [r]: the level most sites leave room to repeat at. *)
  let* r = int_bound (n_outer - 1) in
  let whole = oneofl [ 0; 0; 16; -16; 32; 1024 ] in
  let gen_site =
    let* store = map (fun k -> k < 2) (int_bound 4) in
    let* buf = int_range 0 2 in
    let* kind = frequency [ (5, return 0); (3, return 1); (1, return 2) ] in
    let* ks =
      match kind with
      | 0 ->
          (* sub-line at level j, whole lines below *)
          let* j = frequency [ (3, return r); (1, int_bound (n_outer - 1)) ] in
          let* above = list_repeat j (oneofl [ 0; 0; 0; 16 ]) in
          let* at_j = oneofl [ 0; 1; 2; -1 ] in
          let+ below = list_repeat (n_outer - j) whole in
          above @ (at_j :: below)
      | 1 ->
          (* a stayer *)
          let* outs =
            flatten_l
              (List.init n_outer (fun l ->
                   if l >= r then oneofl [ 0; 0; 0; 16 ] else oneofl [ 0; 16; 32 ]))
          in
          let+ k = int_range (-2) 2 in
          outs @ [ k ]
      | _ ->
          flatten_l
            (List.init (n_outer + 1) (fun l ->
                 if l = r then oneofl [ 0; 0; 0; 16 ] else whole))
    in
    let+ c = int_bound 20 in
    { store; buf; subs = [ (c, ks) ] }
  in
  let* sites = list_size (int_range 2 4) gen_site in
  let+ sibling =
    let* k = int_bound (List.length sites - 1) in
    let s = List.nth sites k in
    let walk =
      {
        s with
        store = false;
        subs =
          List.map
            (fun (c, ks) -> (c, List.filteri (fun i _ -> i < n_outer) ks @ [ 1024 ]))
            s.subs;
      }
    in
    frequency [ (3, return []); (1, return [ walk ]) ]
  in
  fit_nest
    { shapes = [| [ 1 ]; [ 1 ]; [ 1 ] |]; outer; inner; step; sites; sibling }

(* A draw the simulator rejects (it provably runs out of bounds) is
   compared fitted into its arrays by [fit_nest]; every other draw,
   including one that leaves its arrays under [min]/[max] bounds, as
   drawn. *)
let prop_strided_matches_closures (name, count, gen) =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(render_nest ~dead:false) gen)
    (fun raw ->
      let report m ~dead n =
        let src = render_nest ~dead n in
        let f = Option.get (Core.find_func (Parser.parse_module src) "k") in
        report_fields (Machine.Perf.time_func m f)
      in
      let n =
        match report MM.intel_i9 ~dead:false raw with
        | _ -> raw
        | exception Support.Diag.Error _ -> fit_nest raw
      in
      let hex r = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") r)) in
      List.for_all
        (fun (m : MM.t) ->
          let strided = report m ~dead:false n
          and closures = report m ~dead:true n in
          Array.for_all2
            (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
            strided closures
          || QCheck.Test.fail_reportf "%s%s: strided %s, closures %s"
               (if n == raw then "" else "fitted:\n" ^ render_nest ~dead:false n)
               m.MM.name (hex strided) (hex closures))
        MM.platforms)

(* The simulator rejects a nest at stage time only when it runs an access
   out of bounds, which the interpreter then fails on too. When
   every loop has constant bounds and runs, the converse holds: each
   access runs at every corner of its box, where its subscripts reach
   their extremes, so any access the interpreter finds out of bounds is
   rejected. The interpreter reads the same analysis: a nest it compiles
   with no checked access never runs out of bounds in the reference
   interpreter ([Ref_interp]). The reference and the compiled engine fail
   the same access, with the same located error. *)
let prop_rejects_exactly_out_of_bounds =
  QCheck.Test.make ~name:"simulator rejects only out-of-bounds nests"
    ~count:300
    (QCheck.make ~print:(render_nest ~dead:false) gen_nest)
    (fun n ->
      let f =
        Option.get
          (Core.find_func (Parser.parse_module (render_nest ~dead:false n)) "k")
      in
      let rejected =
        match Machine.Perf.time_func MM.intel_i9 f with
        | _ -> false
        | exception Support.Diag.Error _ -> true
      in
      (* The reference and the compiled engine fail the first
         out-of-bounds access, located at it. *)
      let run run_func =
        let bufs = Array.to_list (Array.map Interp.Buffer.create n.shapes) in
        match run_func f bufs with
        | () -> None
        | exception Support.Diag.Error (loc, msg)
          when Astring_contains.contains msg "out of bounds" ->
            Some (loc, msg)
      in
      let walked = run Ref_interp.run_func in
      let out_of_bounds = Option.is_some walked in
      (match (walked, run Interp.Eval.run_func) with
      | Some (wl, wm), Some (cl, cm)
        when Support.Loc.is_known wl && Support.Loc.equal wl cl && wm = cm ->
          ()
      | None, None -> ()
      | _ -> QCheck.Test.fail_report "the engines fail differently");
      let boxed =
        List.for_all (fun (lb, ub, _) -> lb < ub) n.outer
        && match n.inner with Const (lb, ub) -> lb < ub | _ -> false
      in
      let proven_in =
        (Interp.Compile.compile_func f).Interp.Compile.c_checked_accesses = 0
      in
      (if rejected && not out_of_bounds then
         QCheck.Test.fail_report "rejected an in-bounds nest");
      (if proven_in && out_of_bounds then
         QCheck.Test.fail_report "proved an out-of-bounds nest in bounds");
      if boxed && out_of_bounds && not rejected then
        QCheck.Test.fail_report "simulated an out-of-bounds nest";
      true)

(* [Cache.run_strided] against the same probes through
   [Cache.access_hierarchy], on tiny three-level hierarchies that evict
   constantly: equal running cost sums and equal per-level counts. The
   2-way L1 takes at most two stayers, so walks of up to 4 sites demote
   the rest to movers; the 8-way one, with up to 8 sites and sub-line
   deltas, runs windows with no mover. With deltas up to ~10 lines on
   the 8-way L1, whole-line movers walk through the sets of stayers; a
   wrong skip there shows in few walks, so that row runs more of them. *)
let prop_run_strided_matches_probes
    (name, l1_ways, max_sites, max_delta, count) =
  let open QCheck.Gen in
  let gen =
    triple (int_bound 40)
      (list_size (int_range 1 max_sites)
         (pair (int_bound 4096) (int_range (-max_delta) max_delta)))
      (float_range 0. 10.)
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "run_strided = access_hierarchy in probe order (%s)" name)
    ~count
    (QCheck.make
       ~print:(fun (n, sites, m0) ->
         Printf.sprintf "n=%d mem=%h %s" n m0
           (String.concat " "
              (List.map (fun (a, d) -> Printf.sprintf "%d%+d" a d) sites)))
       gen)
    (fun (n, sites, m0) ->
      let levels () =
        let l1 = C.create ~size:(128 * l1_ways) ~line:32 ~ways:l1_ways
        and l2 = C.create ~size:512 ~line:32 ~ways:4
        and l3 = C.create ~size:1024 ~line:64 ~ways:2 in
        ([ l1; l2; l3 ], C.create_hierarchy ~l1 ~l2 ~l3)
      in
      let sites = Array.of_list sites in
      let costs =
        Array.init (3 * Array.length sites) (fun i -> 0.1 +. float_of_int i)
      in
      let ls, h = levels () in
      let got =
        C.run_strided h
          (C.plan h ~deltas:(Array.map snd sites))
          ~n ~addrs:(Array.map fst sites) ~costs m0
      in
      let ls', h' = levels () in
      let want = ref m0 in
      for i = 0 to n - 1 do
        Array.iteri
          (fun s (a, d) ->
            let level = C.access_hierarchy h' (a + (i * d)) in
            if level > 1 then want := !want +. costs.((3 * s) + level - 2))
          sites
      done;
      (* The caches must also agree on what comes next. *)
      let after = Array.init 64 (fun i -> (i * 88) - 200) in
      Array.iter
        (fun a ->
          if C.access_hierarchy h a <> C.access_hierarchy h' a then
            QCheck.Test.fail_reportf "address %d: outcomes differ afterwards" a)
        after;
      Int64.bits_of_float got = Int64.bits_of_float !want
      && List.for_all2
           (fun c c' ->
             C.accesses c = C.accesses c' && C.misses c = C.misses c')
           ls ls')

let run_strided_geometries =
  [
    ("2-way L1", 2, 4, 300, 300);
    ("2-way L1, sub-line deltas", 2, 4, 31, 300);
    ("8-way L1, sub-line deltas", 8, 8, 31, 300);
    ("8-way L1, mixed deltas", 8, 8, 300, 3000);
  ]

(* A window whose sites stay in their lines probes its first iteration
   only: one unit-stride site over 32-byte lines probes every eighth
   access. *)
let test_chunks_skip_hits () =
  let l1 = C.create ~size:1024 ~line:32 ~ways:8 in
  let h =
    C.create_hierarchy ~l1 ~l2:(C.create ~size:2048 ~line:32 ~ways:8)
      ~l3:(C.create ~size:4096 ~line:32 ~ways:8)
  in
  ignore (C.run_strided h (C.plan h ~deltas:[| 4 |]) ~n:64 ~addrs:[| 4096 |]
            ~costs:[| 1.; 2.; 3. |] 0.);
  Alcotest.(check int) "accesses" 64 (C.accesses l1);
  Alcotest.(check int) "misses" 8 (C.misses l1);
  Alcotest.(check int) "probes" 8 (C.probes l1)

(* A whole-line mover probed after a sub-line site in the same set
   leaves that site's line below the set's most recently used one, and
   the next iteration's access moves it back on top. On a 4-set, 8-way
   L1 of 32-byte lines: a site at line 0 (set 0) that stays, then one
   moving a line per iteration from line 4 (set 0 too). After four
   iterations line 0 is the most recently used line of set 0 and line 4
   the least, so seven new lines in set 0 evict line 4, not line 0. *)
let test_mixed_walk_keeps_recency () =
  let l1 = C.create ~size:1024 ~line:32 ~ways:8 in
  let h =
    C.create_hierarchy ~l1 ~l2:(C.create ~size:4096 ~line:32 ~ways:8)
      ~l3:(C.create ~size:8192 ~line:32 ~ways:8)
  in
  ignore
    (C.run_strided h (C.plan h ~deltas:[| 0; 32 |]) ~n:4 ~addrs:[| 0; 128 |]
       ~costs:(Array.make 6 1.) 0.);
  Alcotest.(check int) "walk misses" 5 (C.misses l1);
  for k = 1 to 7 do
    ignore (C.access l1 (k * 128 * 2))
  done;
  Alcotest.(check int) "fill misses" 12 (C.misses l1);
  Alcotest.(check bool) "the staying line survives" true (C.access l1 0);
  Alcotest.(check bool) "the mover's first line is evicted" false
    (C.access l1 128)

(* [Cache.replay_movers] against [Cache.run_strided] on twin
   hierarchies (L1: 4 sets of 2 ways, 64-byte lines; outer levels with
   its line and more sets). The mover walks one L1 set 256 bytes a step
   and misses every access; the stayer keeps to other sets. Three
   entries fix the movers' outcome (the first misses L2, the next two
   hit it); the fourth moves the stayer to a cold line 48 bytes in, so
   it misses at its first iteration and again when it crosses into the
   next line at its fifth, between the mover's misses. The costs are
   not dyadic: the fourth entry's sum, from 0, has other bits when the
   stayer's costs are added before the mover's. *)
let test_movers_replay_merges_costs () =
  let hierarchy () =
    let l1 = C.create ~size:512 ~line:64 ~ways:2
    and l2 = C.create ~size:4096 ~line:64 ~ways:4
    and l3 = C.create ~size:16384 ~line:64 ~ways:4 in
    (C.create_hierarchy ~l1 ~l2 ~l3, [ l1; l2; l3 ])
  in
  let deltas = [| 4; 256 |] and n = 8 in
  let costs = [| 0.1; 0.2; 1.1; 0.7; 1.3; 1.7 |] in
  let (href, cref), (htest, ctest) = (hierarchy (), hierarchy ()) in
  let pref = C.plan href ~deltas and ptest = C.plan htest ~deltas in
  Alcotest.(check bool) "separable" true (C.separable htest);
  Alcotest.(check bool) "the mover keeps one set" true (C.one_set_movers ptest);
  let stayer = 64 * 1 and mover = 64 * 4 * 100 in
  let o = C.outcome () and movers = C.outcome () in
  let mref = ref 0. and mtest = ref 0. in
  for _ = 1 to 3 do
    mref := C.run_strided href pref ~n ~addrs:[| stayer; mover |] ~costs !mref;
    C.clear o;
    mtest :=
      C.run_strided ~record:o htest ptest ~n ~addrs:[| stayer; mover |] ~costs
        !mtest;
    C.movers_outcome ptest o ~into:movers
  done;
  let moved = [| (64 * 4 * 7) + 64 + 48; mover |] in
  Alcotest.(check bool) "the stayer avoids the mover's set" true
    (C.stayers_avoid_movers htest ptest ~n ~addrs:(Array.copy moved));
  let misses = C.misses (C.l1 href) in
  mref := C.run_strided href pref ~n ~addrs:(Array.copy moved) ~costs 0.;
  Alcotest.(check int) "the stayer misses twice" (misses + n + 2)
    (C.misses (C.l1 href));
  mtest :=
    C.replay_movers htest ptest ~n ~addrs:(Array.copy moved) ~movers ~costs 0.;
  Alcotest.(check string) "mem_cycles bits"
    (Printf.sprintf "%h" !mref) (Printf.sprintf "%h" !mtest);
  let counts = List.map (fun c -> (C.accesses c, C.misses c)) in
  Alcotest.(check (list (pair int int))) "accesses and misses per level"
    (counts cref) (counts ctest);
  Alcotest.(check int) "replayed" n (C.replayed (C.l1 htest))

(* [Cache.stayers_avoid_movers] against a naive check of the walk: every
   stayer line's L1 set against every mover line's. L1 has 8 sets of
   32-byte lines, so a 256-byte set span; stayers move -31 to 31 bytes a
   step, far enough in 40 steps to reach and pass the set count, and the
   movers move whole set spans, so each keeps one set. *)
let prop_stayers_avoid_movers =
  let open QCheck.Gen in
  let site delta = pair (int_range 2048 6143) delta in
  let set_spans = map (fun k -> 256 * if k < 0 then k else k + 1) (int_range (-3) 2) in
  let gen =
    triple (int_range 1 40)
      (list_size (int_range 1 4) (site (int_range (-31) 31)))
      (list_size (int_range 1 3) (site set_spans))
  in
  let print (n, stayers, movers) =
    let sites l =
      String.concat " " (List.map (fun (a, d) -> Printf.sprintf "%d%+d" a d) l)
    in
    Printf.sprintf "n=%d stayers %s movers %s" n (sites stayers) (sites movers)
  in
  QCheck.Test.make
    ~name:"stayers_avoid_movers = naive set check (one-set movers)"
    ~count:1000 (QCheck.make ~print gen)
    (fun (n, stayers, movers) ->
      let l1 = C.create ~size:1024 ~line:32 ~ways:4 in
      let h =
        C.create_hierarchy ~l1 ~l2:(C.create ~size:4096 ~line:32 ~ways:4)
          ~l3:(C.create ~size:8192 ~line:32 ~ways:4)
      in
      let sites = Array.of_list (stayers @ movers) in
      let p = C.plan h ~deltas:(Array.map snd sites) in
      let sets (a, d) = List.init n (fun i -> ((a + (i * d)) asr 5) land 7) in
      let used = List.concat_map sets movers in
      let naive =
        List.for_all
          (fun st -> List.for_all (fun set -> not (List.mem set used)) (sets st))
          stayers
      in
      C.one_set_movers p
      && C.stayers_avoid_movers h p ~n ~addrs:(Array.map fst sites) = naive)

(* The stage-time bounds check at its edges: the last value a stepped
   loop takes, one past either end, an empty loop, and one value bound to
   two map dims, whose corners are the value's own. Both consumers read
   Affine.Bounds: each case is also compiled by the interpreter, which
   takes the unchecked path exactly when the access is proven in. *)
let test_subscript_bounds_edges () =
  let kernel ?(edit = fun _ -> ()) ~extent ~loops sub =
    let src =
      Printf.sprintf
        {|builtin.module {
  func.func @k(%%A: memref<%dxf32>) {
%s    %%0 = affine.load %%A[%s] : memref<%dxf32>
%s    func.return
  }
}|}
        extent
        (String.concat ""
           (List.map (fun (iv, lb, ub, step) ->
                Printf.sprintf "affine.for %%%s = %d to %d step %d {\n" iv lb ub
                  step)
              loops))
        sub extent
        (String.concat "" (List.map (fun _ -> "affine.yield\n}\n") loops))
    in
    let f =
      Option.get (Core.find_func (Parser.parse_module ~file:"k.mlir" src) "k")
    in
    Core.walk f (fun op -> if op.Core.o_name = "affine.load" then edit op);
    let checked =
      (Interp.Compile.compile_func f).Interp.Compile.c_checked_accesses
    in
    match Machine.Perf.time_func MM.intel_i9 f with
    | _ -> (None, checked)
    | exception Support.Diag.Error (loc, msg) ->
        (Some (Support.Diag.to_string loc msg), checked)
  in
  let accepted ?(checked = 0) what (r, c) =
    Alcotest.(check (option string)) what None r;
    Alcotest.(check int) (what ^ ": checked accesses") checked c
  in
  let rejected what want (r, c) =
    Alcotest.(check (option string)) what (Some want) r;
    Alcotest.(check int) (what ^ ": checked accesses") 1 c
  in
  (* The interval ends at 8, the last value the iv takes, not at
     [ub - 1 = 9]: the interpreter needs no check. *)
  accepted "0 to 10 step 4 stops at 8"
    (kernel ~extent:9 ~loops:[ ("i", 0, 10, 4) ] "%i");
  rejected "0 to 10 step 4 reaches 8"
    "k.mlir:4:5: trace: affine.load index reaches 8, out of bounds [0, 8) \
     at dim 0"
    (kernel ~extent:8 ~loops:[ ("i", 0, 10, 4) ] "%i");
  rejected "one below the start"
    "k.mlir:4:5: trace: affine.load index reaches -1, out of bounds [0, 8) \
     at dim 0"
    (kernel ~extent:8 ~loops:[ ("i", 0, 8, 1) ] "%i - 1");
  accepted ~checked:1 "an empty loop runs nothing"
    (kernel ~extent:8 ~loops:[ ("i", 5, 5, 1) ] "%i + 100");
  let i_twice op =
    (* [%i + %j] becomes [d0 - d1 + 3] over [%i, %i]: always 3. *)
    let i = Core.operand op 1 in
    Core.set_operand op 2 i;
    Core.set_attr op "map"
      (Attr.Map
         (Affine_map.make ~n_dims:2
            [ Affine_expr.(add (sub (dim 0) (dim 1)) (const 3)) ]))
  in
  accepted "one value bound to two dims"
    (kernel ~edit:i_twice ~extent:4
       ~loops:[ ("i", 0, 9, 1); ("j", 0, 9, 1) ]
       "%i + %j")

(* A kernel over [%t = i - 7], i in [0, 14), with [body] in its loop. *)
let division_kernel body =
  let src =
    Printf.sprintf
      {|builtin.module {
  func.func @k(%%A: memref<1024xf32>) {
    affine.for %%i = 0 to 14 {
      %%c7 = arith.constant 7 : index
      %%c2 = arith.constant 2 : index
      %%t = arith.subi %%i, %%c7 : index
%s
      affine.yield
    }
    func.return
  }
}|}
      body
  in
  Option.get (Core.find_func (Parser.parse_module ~file:"d.mlir" src) "k")

(* [arith.floordivsi] and [arith.remsi] floor, like the interpreter and
   [Affine_expr]: a subscript through [(i - 7) floordiv 2] touches the
   lines an [affine.apply] of the [floordiv] map touches, where
   truncation would move each odd negative quotient up one, 256 bytes. *)
let test_integer_division_floors () =
  let time f = report_fields (Machine.Perf.time_func MM.intel_i9 f) in
  let through_arith =
    time
      (division_kernel
         {|      %q = arith.floordivsi %t, %c2 : index
      %0 = affine.load %A[%q * 64 + 512] : memref<1024xf32>|})
  and through_map =
    time
      (division_kernel
         {|      %q = affine.apply (%i - 7) floordiv 2
      %0 = affine.load %A[%q * 64 + 512] : memref<1024xf32>|})
  in
  Array.iteri
    (fun i want ->
      Alcotest.(check int64) report_field_names.(i) (Int64.bits_of_float want)
        (Int64.bits_of_float through_arith.(i)))
    through_map

(* A zero divisor is an error located at the division, not a
   [Division_by_zero] escaping the simulator. *)
let test_zero_divisor_is_located () =
  List.iter
    (fun name ->
      let f =
        division_kernel
          (Printf.sprintf
             {|      %%c0 = arith.constant 0 : index
      %%q = %s %%t, %%c0 : index
      %%0 = affine.load %%A[%%q + 7] : memref<1024xf32>|}
             name)
      in
      match Machine.Perf.time_func MM.intel_i9 f with
      | _ -> Alcotest.failf "%s by zero: simulated" name
      | exception Support.Diag.Error (loc, msg) ->
          Alcotest.(check string) (name ^ " by zero")
            ("d.mlir:8:7: trace: " ^ name ^ " by zero")
            (Support.Diag.to_string loc msg))
    [ "arith.floordivsi"; "arith.remsi" ]

(* Maps the simulator cannot stage fail before the walk with an error
   located at the edited op, never an [Invalid_argument] from the walk
   itself. *)
let test_unstageable_maps_are_diag_errors () =
  let expect what edit =
    let f =
      Option.get
        (Core.find_func
           (Parser.parse_module ~file:"nonlin.mlir" pinned_nonlinear)
           "nonlin")
    in
    let target = ref None in
    Core.walk f (fun op ->
        if !target = None && op.Core.o_name = what then target := Some op);
    let op = Option.get !target in
    edit op;
    match Machine.Perf.time_func MM.intel_i9 f with
    | _ -> Alcotest.failf "%s: simulated an unstageable map" what
    | exception Support.Diag.Error (loc, _) ->
        Alcotest.(check bool)
          (what ^ " is located") true (Support.Loc.is_known op.Core.o_loc);
        Alcotest.(check string)
          (what ^ " error location")
          (Support.Loc.to_string op.Core.o_loc)
          (Support.Loc.to_string loc)
  in
  let set_map m op = Core.set_attr op "map" (Attr.Map m) in
  expect "affine.load"
    (set_map
       (Affine_map.make ~n_dims:2 ~n_syms:1
          [ Affine_expr.add (Affine_expr.dim 0) (Affine_expr.sym 0);
            Affine_expr.dim 1 ]));
  expect "affine.apply" (set_map (Affine_map.make ~n_dims:2 []));
  expect "affine.apply"
    (set_map
       (Affine_map.make ~n_dims:2
          [ Affine_expr.Mod (Affine_expr.dim 0, Affine_expr.dim 1) ]))

(* [Perf.time_func] reuses its domain's hierarchy: A, then B, then A
   again on one domain must equal each kernel timed on a new domain,
   whose first call builds its hierarchies afresh. B runs on each
   platform after A on each, so a hierarchy reused across geometries
   would show: A sweeps a 384 KB buffer twice at a stride too wide to
   stream, and its second sweep hits the AMD L2 but not the Intel one. *)
let test_reused_hierarchy_is_fresh () =
  let a =
    func_of
      "void sweep(float a[98304]) { for (int r = 0; r < 2; ++r) for (int i \
       = 0; i < 24576; ++i) a[4 * i] = a[4 * i] + 1.0; }"
      "sweep"
  and b = List.assoc "mm-tile32" (pinned_kernels ()) in
  let fresh m f =
    report_fields
      (Domain.join (Domain.spawn (fun () -> Machine.Perf.time_func m f)))
  in
  let fresh_a = List.map (fun m -> (m, fresh m a)) MM.platforms
  and fresh_b = List.map (fun m -> (m, fresh m b)) MM.platforms in
  let same what want got =
    Array.iteri
      (fun i w ->
        if Int64.bits_of_float w <> Int64.bits_of_float got.(i) then
          Alcotest.failf "%s: %s is %h, fresh %h" what report_field_names.(i)
            got.(i) w)
      want
  in
  let time m f = report_fields (Machine.Perf.time_func m f) in
  List.iter
    (fun (m : MM.t) ->
      List.iter
        (fun (m' : MM.t) ->
          let what k (m : MM.t) =
            Printf.sprintf "%s on %s (B on %s)" k m.MM.name m'.MM.name
          in
          let a1 = time m a in
          let b1 = time m' b in
          let a2 = time m a in
          same (what "A" m) (List.assq m fresh_a) a1;
          same (what "B" m') (List.assq m' fresh_b) b1;
          same (what "A again" m) (List.assq m fresh_a) a2)
        MM.platforms)
    MM.platforms

(* The simulator's work, pinned: the logical accesses of Figure-9 cells
   (as in perfbench/expected_simulate.tsv), the L1 probes that actually
   ran ([Cache.probes] of a hierarchy the cell ran on) and the accesses
   replayed from a recorded outcome ([Cache.replayed]). ab-cad-dcb
   replays whole (c, d) sub-walks, ab-acd-dbc its movers (B moves 4 KB a
   step, in one L1 set); abcd-aebf-dfce's mover moves 576 bytes a step,
   across sets, so it replays nothing. *)
let pinned_gemm_probes =
  [
    ("gemm", Mlt.Pipeline.Clang_O3, "intel-i9-9900k", 8404992, 502528, 6815744);
    ("gemm", Mlt.Pipeline.Clang_O3, "amd-2920x", 8404992, 502528, 6815744);
    ("gemm", Mlt.Pipeline.Pluto_default, "intel-i9-9900k", 8404992, 251044, 7609856);
    ("gemm", Mlt.Pipeline.Pluto_default, "amd-2920x", 8404992, 251044, 7609856);
  ]

let pinned_contraction_probes =
  [
    ("ab-cad-dcb", Mlt.Pipeline.Clang_O3, "intel-i9-9900k", 4195328, 259456, 3407872);
    ("ab-cad-dcb", Mlt.Pipeline.Clang_O3, "amd-2920x", 4195328, 259456, 3407872);
    ("ab-acd-dbc", Mlt.Pipeline.Clang_O3, "intel-i9-9900k", 4195328, 574778, 761280);
    ("ab-acd-dbc", Mlt.Pipeline.Clang_O3, "amd-2920x", 4195328, 574778, 761280);
    ("abcd-aebf-dfce", Mlt.Pipeline.Clang_O3, "intel-i9-9900k", 11964672, 4590024, 0);
    ("abcd-aebf-dfce", Mlt.Pipeline.Clang_O3, "amd-2920x", 11964672, 4590024, 0);
  ]

let check_pinned_probes pins =
  List.iter
    (fun (kernel, c, mname, accesses, probes, replayed) ->
      let src =
        List.find_map
          (fun (k, src, _) -> if k = kernel then Some src else None)
          (W.figure9_suite ())
        |> Option.get
      in
      let m = List.find (fun (m : MM.t) -> m.MM.name = mname) MM.platforms in
      let mod_ = Mlt.Pipeline.prepare_schedule (Mlt.Pipeline.Config c) src in
      let f =
        Option.get (Core.find_func mod_ (Test_interp_compile.func_name_of mod_))
      in
      let what = kernel ^ " " ^ Mlt.Pipeline.config_name c ^ "/" ^ mname in
      let h = MM.fresh_hierarchy m in
      let stats = Machine.Trace.empty_stats () in
      let ops =
        List.filter
          (fun (op : Core.op) -> op.o_name <> "func.return")
          (Core.ops_of_block (Core.func_entry f))
      in
      Machine.Trace.simulate m h (Machine.Trace.assign_addresses f) stats ops;
      let report = Machine.Perf.time_func m f in
      Alcotest.(check (float 0.)) (what ^ " accesses = time_func's")
        report.Machine.Perf.stats.Machine.Trace.accesses
        stats.Machine.Trace.accesses;
      Alcotest.(check int) (what ^ " accesses") accesses
        (int_of_float stats.Machine.Trace.accesses);
      Alcotest.(check int) (what ^ " probes") probes (C.probes (C.l1 h));
      Alcotest.(check int) (what ^ " replayed") replayed (C.replayed (C.l1 h)))
    pins

let test_pinned_probes () = check_pinned_probes pinned_gemm_probes

let test_pinned_contraction_probes () =
  check_pinned_probes pinned_contraction_probes

(* [mlt-sim --metrics] says where clang-O3 gemm's accesses went: each
   [Perf.time_func] adds its logical accesses, its L1 probes and the
   accesses of its replayed loop entries. The rest, 8,404,992 minus the
   two, are the stayer hits [Cache.run_strided] counted without a
   probe. *)
let test_pinned_sim_metrics () =
  let src =
    List.find_map
      (fun (k, src, _) -> if k = "gemm" then Some src else None)
      (W.figure9_suite ())
    |> Option.get
  in
  let f =
    Option.get
      (Core.find_func
         (Mlt.Pipeline.prepare_schedule (Mlt.Pipeline.Config Mlt.Pipeline.Clang_O3) src)
         "gemm")
  in
  let counters () =
    let samples = Metrics.snapshot () in
    List.map
      (fun name ->
        match List.find_opt (fun s -> s.Metrics.s_metric = name) samples with
        | Some { Metrics.s_value = Metrics.V_counter n; _ } -> n
        | _ -> 0)
      [ "mlt_sim_accesses"; "mlt_sim_l1_probes"; "mlt_sim_replayed_accesses" ]
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  List.iter
    (fun (m : MM.t) ->
      let before = counters () in
      ignore (Machine.Perf.time_func m f);
      let got = List.map2 ( - ) (counters ()) before in
      Alcotest.(check (list int))
        (m.MM.name ^ ": accesses, L1 probes, replayed accesses")
        [ 8404992; 502528; 6815744 ] got)
    MM.platforms

(* ---- the simulator = the reference trace ------------------------------ *)

(* Fresh caches of a [Ref_trace.geometry]: L1, L2, L3. *)
let caches_of geometry =
  match List.map (fun (size, line, ways) -> C.create ~size ~line ~ways) geometry with
  | [ l1; l2; l3 ] -> (l1, l2, l3)
  | _ -> invalid_arg "caches_of: three levels"

(* [func]'s logical accesses and each level's accesses and misses, from
   [Machine.Trace] on fresh caches of each machine and from [Ref_trace]:
   the first disagreement, if any. [machines] pairs each model with its
   cache geometry ([Ref_trace.geometry]'s by default). *)
let reference_disagreement ?machines func =
  let machines =
    Option.value machines
      ~default:(List.map (fun m -> (m, Ref_trace.geometry m)) MM.platforms)
  in
  let refs =
    List.map (fun (m, g) -> ((m, g), Ref_trace.create ~geometry:g m)) machines
  in
  Ref_trace.run (List.map snd refs) func;
  let simulated (op : Core.op) =
    not
      (op.o_name = "func.return" || Blas.Blas_ops.is_blas op
     || Affine.Affine_ops.is_matmul op)
  in
  let ops = List.filter simulated (Core.ops_of_block (Core.func_entry func)) in
  let render accesses levels mem_cycles =
    String.concat " "
      ((string_of_int accesses
       :: List.map (fun (a, miss) -> Printf.sprintf "%d/%d" a miss) levels)
      @ [ Printf.sprintf "%h" mem_cycles ])
  in
  List.find_map
    (fun (((m : MM.t), g), r) ->
      let l1, l2, l3 = caches_of g in
      let stats = Machine.Trace.empty_stats () in
      Machine.Trace.simulate m
        (C.create_hierarchy ~l1 ~l2 ~l3)
        (Machine.Trace.assign_addresses func)
        stats ops;
      let got =
        render
          (int_of_float stats.Machine.Trace.accesses)
          (List.map (fun c -> (C.accesses c, C.misses c)) [ l1; l2; l3 ])
          stats.Machine.Trace.mem_cycles
      and want =
        render r.Ref_trace.accesses
          (Array.to_list
             (Array.map
                (fun l -> (l.Ref_lru.accesses, l.Ref_lru.misses))
                r.Ref_trace.levels))
          r.Ref_trace.mem_cycles
      in
      if got = want then None
      else
        Some
          (Printf.sprintf
             "%s: simulated %s, reference %s (accesses, accesses/misses per \
              level, mem_cycles)"
             m.MM.name got want))
    refs

(* Consecutive innermost entries that walk the same lines, with misses:
   the entries a replay of the previous entry's outcome would skip. In
   [col], each (i, j) entry walks 12 rows of column j of [B], 4 KB
   apart: one L1 set of 8 ways, so every entry misses every row, and
   sixteen consecutive js share their lines. [warm] first touches the
   column's top row, then four rows 64 KB apart: on the Intel model they
   share its L2 set (4 ways) and push it out of L2, not out of L1. The
   first entry hits it in L1, the second misses it in L1 and L2, the
   third misses it in L1 only: a replay of the second entry's outcome
   would be wrong. gemver under clang-O3 at Figure-9 size repeats its
   transposed walk of [A] the same way. Each must equal the reference
   trace, [mem_cycles] bit for bit. *)
let test_replay_matches_reference () =
  let col =
    func_of
      "void col(float B[16][1024], float s[1024]) { for (int i = 0; i < 3; \
       ++i) for (int j = 0; j < 48; ++j) for (int k = 0; k < 12; ++k) s[j] \
       = s[j] + B[k][j]; }"
      "col"
  and warm =
    func_of
      "void warm(float B[80][1024], float s[1024]) { for (int k = 0; k < 1; \
       ++k) s[k] = B[k][0]; for (int t = 0; t < 4; ++t) s[t] = B[16 * t + \
       16][0]; for (int i = 0; i < 2; ++i) for (int j = 0; j < 48; ++j) for \
       (int k = 0; k < 12; ++k) s[j] = s[j] + B[k][j]; }"
      "warm"
  and gemver =
    let src =
      List.find_map
        (fun (k, src, _) -> if k = "gemver" then Some src else None)
        (W.figure9_suite ())
      |> Option.get
    in
    Option.get
      (Core.find_func
         (Mlt.Pipeline.prepare_schedule (Mlt.Pipeline.Config Mlt.Pipeline.Clang_O3)
            src)
         "gemver")
  in
  List.iter
    (fun (what, f) ->
      Option.iter (Alcotest.failf "%s: %s" what) (reference_disagreement f))
    [ ("col", col); ("warm", warm); ("gemver clang-O3", gemver) ]

(* The accesses [func]'s simulation replayed ([Cache.replayed]) on
   fresh caches of [m]'s model with [geometry]'s levels. *)
let replayed_accesses ?geometry (m : MM.t) func =
  let l1, l2, l3 =
    caches_of (Option.value geometry ~default:(Ref_trace.geometry m))
  in
  let ops =
    List.filter
      (fun (op : Core.op) -> op.o_name <> "func.return")
      (Core.ops_of_block (Core.func_entry func))
  in
  Machine.Trace.simulate m
    (C.create_hierarchy ~l1 ~l2 ~l3)
    (Machine.Trace.assign_addresses func)
    (Machine.Trace.empty_stats ()) ops;
  C.replayed l1

let contraction spec extent =
  let t = Workloads.Contraction_spec.parse spec in
  let sizes =
    List.map (fun c -> (c, extent)) (Workloads.Contraction_spec.all_indices t)
  in
  func_of
    (Workloads.Contraction_spec.c_source t ~sizes ~name:"contraction" ())
    "contraction"

(* Nests whose sub-walks or movers repeat, each equal to the reference
   trace on both machines.
   - Two Figure-9 contractions at extent 16. In ab-cad-dcb
     ([C[a][b] += A[c][a][d] * B[d][c][b]]) the whole (c, d) sub-walk
     repeats for 16 consecutive [b], a level above the innermost entry.
     In ab-acd-dbc ([C[a][b] += A[a][c][d] * B[d][b][c]]) B's column
     repeats from entry to entry while A moves a line, and A walks into
     B's L1 sets every 16 entries.
   - [stayer_in_set]: B's column is 8 lines 4 KB apart, one L1 set's
     8 ways, and repeats every entry; A's row, a stayer, moves one line
     per entry and lands in that set every 64 entries, where B then
     misses throughout: its movers must be probed there.
   - [closure_path]: the [%i] nest's mover walks one set 4 KB a step
     and repeats from one [%o0] iteration to the next, but the [%t] loop
     between two entries walks that set too, one line more per [%o0]
     iteration up to four, so a replay that ignored its probes would
     keep an outcome with too few misses. *)
let test_repeats_match_reference () =
  let stayer_in_set =
    func_of
      "void k(float A[128][16], float B[8][1024], float s[128]) { for (int \
       c = 0; c < 128; ++c) for (int d = 0; d < 8; ++d) s[c] = s[c] + \
       A[c][d] * B[d][0]; }"
      "k"
  and closure_path =
    let ty = "memref<4x11294xf32>" in
    Option.get
      (Core.find_func
         (Parser.parse_module
            (Printf.sprintf
               {|builtin.module {
  func.func @k(%%B0: %s) {
    affine.for %%o0 = 2 to 19 {
      affine.for %%i = 0 to 7 {
        %%v0 = affine.load %%B0[3, 11] : %s
        %%v1 = affine.load %%B0[2, 11 + %%o0 + %%i * 1024] : %s
        %%v2 = affine.load %%B0[3, 12 + %%i * -2] : %s
        affine.yield
      }
      affine.for %%t = 7 to min(%%o0 + 5, 11) {
        %%v3 = affine.load %%B0[2, 11 + %%o0 + %%t * 1024] : %s
        affine.yield
      }
      affine.yield
    }
    func.return
  }
}|}
               ty ty ty ty ty))
         "k")
  in
  List.iter
    (fun (what, f) ->
      Option.iter (Alcotest.failf "%s: %s" what) (reference_disagreement f))
    [
      ("ab-cad-dcb", contraction "ab-cad-dcb" 16);
      ("ab-acd-dbc", contraction "ab-acd-dbc" 16);
      ("stayer in the movers' set", stayer_in_set);
      ("probes between two entries", closure_path);
    ]

(* Hierarchies whose L1 set does not fix a line's outer sets: an L2 with
   128-byte lines, and an L2 with fewer sets than L1 (32 against 64).
   ab-acd-dbc's entries repeat only at B, its one mover, so nothing may
   replay there; the simulation must still equal the reference. *)
let test_inseparable_hierarchies () =
  let m = MM.intel_i9 in
  let f = contraction "ab-acd-dbc" 16 in
  List.iter
    (fun (what, l2) ->
      let geometry =
        [ (m.MM.l1_size, m.MM.line, m.MM.l1_ways); l2;
          (m.MM.l3_size, m.MM.line, m.MM.l3_ways) ]
      in
      Option.iter (Alcotest.failf "%s: %s" what)
        (reference_disagreement ~machines:[ (m, geometry) ] f);
      Alcotest.(check int) (what ^ ": replayed accesses") 0
        (replayed_accesses ~geometry m f))
    [
      ("128-byte L2 lines", (m.MM.l2_size, 128, m.MM.l2_ways));
      ("32 L2 sets", (64 * 1024, m.MM.line, 32));
    ]

(* Every Figure-9 kernel at the verify benchmark's 1/27 iteration space,
   under every untuned schedule, on both machines. *)
let test_simulator_matches_reference () =
  let module P = Mlt.Pipeline in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun c ->
          let m = P.prepare_schedule (P.Config c) src in
          let f =
            Option.get (Core.find_func m (Test_interp_compile.func_name_of m))
          in
          Option.iter
            (Alcotest.failf "%s/%s: %s" name (P.config_name c))
            (reference_disagreement f))
        P.[ Clang_O3; Pluto_default; Mlt_linalg; Mlt_blas; Mlt_affine_blis ])
    (Test_interp_compile.verify_kernels ())

(* Most of [gen_level_nest]'s draws must replay something: with a fixed
   seed, at least a quarter of 100. *)
let test_level_nests_replay () =
  let rand = Random.State.make [| 34 |] in
  let draws = QCheck.Gen.generate ~rand ~n:100 gen_level_nest in
  let replaying =
    List.length
      (List.filter
         (fun n ->
           let f =
             Option.get
               (Core.find_func (Parser.parse_module (render_nest ~dead:false n)) "k")
           in
           replayed_accesses MM.intel_i9 f > 0)
         draws)
  in
  if replaying < 25 then
    Alcotest.failf "only %d of 100 level nests replayed an access" replaying

(* Random nests, fitted into their arrays when the simulator rejects
   them as drawn. *)
let prop_simulator_matches_reference (name, count, gen) =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(render_nest ~dead:false) gen)
    (fun raw ->
      let func n =
        Option.get
          (Core.find_func (Parser.parse_module (render_nest ~dead:false n)) "k")
      in
      let f =
        match Machine.Perf.time_func MM.intel_i9 (func raw) with
        | _ -> func raw
        | exception Support.Diag.Error _ -> func (fit_nest raw)
      in
      match reference_disagreement f with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let suite =
  [
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache associativity conflicts" `Quick
      test_cache_associativity_conflicts;
    Alcotest.test_case "hierarchy levels" `Quick test_hierarchy_levels;
    Alcotest.test_case "vectorizability analysis" `Quick test_vectorizability;
    Alcotest.test_case "trace counts gemm" `Quick test_trace_counts_gemm;
    Alcotest.test_case "tiling improves locality" `Quick
      test_tiling_improves_gemm_locality;
    Alcotest.test_case "blas model orderings" `Quick test_blas_model_orderings;
    Alcotest.test_case "blis codegen between loops and library" `Quick
      test_blis_codegen_between_loops_and_library;
    Alcotest.test_case "figure 9 headline ordering (gemm)" `Quick
      test_figure9_headline_ordering;
    Alcotest.test_case "level-2 overhead story (atax)" `Quick
      test_level2_overhead_story;
    Alcotest.test_case "pinned reports (tile, triangular, linearized, \
       non-linear)" `Quick test_pinned_reports;
    Alcotest.test_case "pinned reports (step-3 ragged, empty inner, \
       tile-32 remainder)" `Quick test_pinned_edge_reports;
    Alcotest.test_case "unstageable maps are located errors" `Quick
      test_unstageable_maps_are_diag_errors;
    Alcotest.test_case "stage-time bounds check edges" `Quick
      test_subscript_bounds_edges;
    Alcotest.test_case "integer division floors like the interpreter" `Quick
      test_integer_division_floors;
    Alcotest.test_case "a zero divisor is a located error" `Quick
      test_zero_divisor_is_located;
    Alcotest.test_case "cache geometry must be a power of two" `Quick
      test_cache_power_of_two;
    Alcotest.test_case "cache = reference LRU across a reset" `Quick
      test_lru_across_reset;
    Alcotest.test_case "strided chunks skip provable L1 hits" `Quick
      test_chunks_skip_hits;
    Alcotest.test_case "a mover after a stayer keeps LRU order" `Quick
      test_mixed_walk_keeps_recency;
    Alcotest.test_case "a movers-only replay adds costs in access order"
      `Quick test_movers_replay_merges_costs;
    Alcotest.test_case "reused hierarchy = fresh hierarchy (A, B, A)" `Quick
      test_reused_hierarchy_is_fresh;
    Alcotest.test_case "pinned accesses and probes (gemm)" `Quick
      test_pinned_probes;
    Alcotest.test_case "pinned accesses, probes and replays \
       (ab-cad-dcb, ab-acd-dbc)" `Quick test_pinned_contraction_probes;
    Alcotest.test_case "pinned simulator metrics (gemm)" `Quick
      test_pinned_sim_metrics;
    Alcotest.test_case "simulator = reference trace (Figure 9, 1/27 size)"
      `Quick test_simulator_matches_reference;
    Alcotest.test_case "replayed entries = reference trace (column walks, \
       gemver)" `Quick test_replay_matches_reference;
    Alcotest.test_case "repeating sub-walks and movers = reference trace"
      `Quick test_repeats_match_reference;
    Alcotest.test_case "inseparable hierarchies = reference trace" `Quick
      test_inseparable_hierarchies;
    Alcotest.test_case "level nests replay (vacuity)" `Quick
      test_level_nests_replay;
  ]
  @ List.concat_map
      (fun stream ->
        List.map
          (fun g ->
            QCheck_alcotest.to_alcotest (prop_lru_matches_reference stream g))
          lru_geometries)
      [ ("", gen_lru_ops); (" at every recency position", gen_rank_ops) ]
  @ List.map QCheck_alcotest.to_alcotest
      (List.map prop_strided_matches_closures
         [
           ("strided innermost runs = closure path (both machines)", 300, gen_nest);
           ( "replayed strided entries = closure path (both machines)",
             400,
             gen_replay_nest );
           ( "strided level nests = closure path (both machines)",
             300,
             gen_level_nest );
         ]
      @ List.map prop_simulator_matches_reference
          [
            ("simulator = reference trace (random nests)", 500, gen_nest);
            ("simulator = reference trace (replaying nests)", 200,
             gen_replay_nest);
            ("simulator = reference trace (level nests)", 300, gen_level_nest);
          ]
      @ prop_rejects_exactly_out_of_bounds :: prop_stayers_avoid_movers
        :: List.map prop_run_strided_matches_probes run_strided_geometries)
