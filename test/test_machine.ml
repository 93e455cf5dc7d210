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
  ]
