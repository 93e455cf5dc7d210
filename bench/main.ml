(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§V).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig8    -- Figure 8 only
     dune exec bench/main.exe -- sec51 fig9 table2 overhead micro
     dune exec bench/main.exe -- fig9 --quick   -- smaller sizes/sweep

   Absolute GFLOPS come from the machine model (DESIGN.md documents the
   testbed substitution); the comparisons of interest are orderings,
   factors and crossovers, printed next to the paper's numbers. *)

open Ir
module W = Workloads.Polybench
module MM = Machine.Machine_model
module P = Mlt.Pipeline
module Script = Transform.Script

let quick = ref false

(* [--trace=FILE] wraps the selected sections in a Chrome trace sink, so
   a bench run can be inspected in Perfetto like any mlt-opt run.
   [--metrics=FILE] enables the Ir.Metrics registry and exports the
   merged snapshot when the selected sections finish. *)
let trace_file = ref None
let metrics_file = ref None

let sep title = Printf.printf "\n== %s ==\n%!" title

let time_schedule schedule machine src =
  fst (P.time_schedule_ext schedule machine src)

let time config = time_schedule (P.Config config)

(* The modelled GFLOPS of a custom schedule. *)
let steps_gflops steps machine src ~flops =
  Machine.Perf.gflops ~flops
    (time_schedule (P.schedule_of_steps steps) machine src)

let gflops config machine src ~flops =
  Machine.Perf.gflops ~flops (time config machine src)

(* ---------------- Figure 8 ---------------------------------------------- *)

let fig8 () =
  sep "Figure 8: GEMM callsites detected by the tactic vs oracle";
  let n = 32 in
  let cases =
    [
      ("mm", W.mm ~ni:n ~nj:n ~nk:n (), 1);
      ("2mm", W.two_mm ~ni:n ~nj:n ~nk:n ~nl:n (), 2);
      ("3mm", W.three_mm ~ni:n ~nj:n ~nk:n ~nl:n ~nm:n (), 3);
      ("darknet", W.darknet_gemm ~m:n ~n ~k:n (), 1);
    ]
  in
  Printf.printf "%-10s %10s %8s %18s\n" "kernel" "detected" "oracle"
    "with-delinearize";
  List.iter
    (fun (name, src, oracle) ->
      let detected = P.count_gemm_callsites src in
      let with_delin = P.count_gemm_callsites ~delinearize:true src in
      Printf.printf "%-10s %10d %8d %18d%s\n" name detected oracle with_delin
        (if detected <> oracle then "   (missed: linearized accesses)" else ""))
    cases;
  Printf.printf
    "paper: mm/2mm/3mm fully detected; darknet missed (1-d linearized \
     accesses).\nThe paper proposes a delinearization pass as the fix; the \
     last column shows\nthis reproduction's implementation of it recovering \
     the callsite.\n"

(* ---------------- Section 5.1 ------------------------------------------- *)

let sec51 () =
  sep "Section 5.1: raising to affine.matmul + BLIS schedule (AMD 2920X)";
  let n = if !quick then 96 else 192 in
  let src = W.mm ~ni:n ~nj:n ~nk:n () in
  let flops = 2. *. float_of_int (n * n * n) in
  let machine = MM.amd_2920x in
  let g config = gflops config machine src ~flops in
  let clang = g P.Clang_O3 in
  let blis = g P.Mlt_affine_blis in
  Printf.printf "SGEMM %dx%dx%d (paper: 2088x2048)\n" n n n;
  Printf.printf "%-24s %10s %14s\n" "config" "GFLOPS" "paper GFLOPS";
  Printf.printf "%-24s %10.2f %14s\n" "clang -O3 (loops)" clang "1.76";
  Printf.printf "%-24s %10.2f %14s\n" "-raise-affine-to-affine" blis "23.59";
  Printf.printf "speedup: %.1fx   (paper: 13.4x)\n" (blis /. clang)

(* ---------------- Figure 9 ---------------------------------------------- *)

let fig9_machine machine =
  sep
    (Printf.sprintf
       "Figure 9 (%s) -- GFLOPS; vendor-library reference line = %.1f"
       machine.MM.name machine.MM.blas_peak_gflops);
  let configs = P.all_figure9_configs in
  Printf.printf "%-16s" "kernel";
  List.iter (fun c -> Printf.printf " %12s" (P.config_name c)) configs;
  Printf.printf "\n";
  let geo = Array.make (List.length configs) 0. in
  let count = ref 0 in
  List.iter
    (fun (name, src, flops) ->
      incr count;
      Printf.printf "%-16s%!" name;
      List.iteri
        (fun i config ->
          let g = gflops config machine src ~flops in
          geo.(i) <- geo.(i) +. log g;
          Printf.printf " %12.2f%!" g)
        configs;
      Printf.printf "\n")
    (W.figure9_suite ());
  Printf.printf "%-16s" "geomean";
  Array.iter
    (fun acc -> Printf.printf " %12.2f" (exp (acc /. float_of_int !count)))
    geo;
  Printf.printf "\n"

let fig9 () = List.iter fig9_machine MM.platforms

(* ---------------- Table II ---------------------------------------------- *)

let table2 () =
  sep "Table II: matrix-chain reordering at the Linalg level (AMD 2920X)";
  let machine = MM.amd_2920x in
  let chains =
    [
      ([ 800; 1100; 900; 1200; 100 ], "(A1x(A2x(A3xA4)))", 6.08);
      ([ 1000; 2000; 900; 1500; 600; 800 ], "((A1x(A2x(A3xA4)))xA5)", 2.27);
      ( [ 1500; 400; 2000; 2200; 600; 1400; 1000 ],
        "(A1x((((A2xA3)xA4)xA5)xA6))", 3.67 );
    ]
  in
  Printf.printf "%-4s %-30s %11s %11s %9s %9s\n" "n" "optimal order" "time IP"
    "time OP" "speedup" "paper";
  List.iter
    (fun (dims, paper_op, paper_speedup) ->
      let src = W.matrix_chain dims in
      let seconds schedule =
        (time_schedule schedule machine src).Machine.Perf.seconds
      in
      (* The initial parenthesization: MLT-Blas without its reordering. *)
      let ip_steps =
        List.filter
          (fun s -> not (Script.equal_step s Script.Reorder_chains))
          (P.schedule_steps (P.Config P.Mlt_blas))
      in
      let t_ip = seconds (P.schedule_of_steps ip_steps) in
      let t_op = seconds (P.Config P.Mlt_blas) in
      let tree, _ = Transforms.Matrix_chain.optimal (Array.of_list dims) in
      let found = Transforms.Matrix_chain.to_string tree in
      Printf.printf "%-4d %-30s %10.4fs %10.4fs %8.2fx %8.2fx%s\n"
        (List.length dims - 1)
        found t_ip t_op (t_ip /. t_op) paper_speedup
        (if found <> paper_op then "  ORDER MISMATCH vs paper " ^ paper_op
         else ""))
    chains

(* ---------------- Compile-time overhead (§5.2) -------------------------- *)

let overhead () =
  sep "Compile-time overhead of raising (16 benchmarks, affine -> SCF)";
  let sources = List.map (fun (_, s, _) -> s) (W.figure9_suite ()) in
  let reps = if !quick then 1 else 3 in
  let measure mode =
    let ts = List.init reps (fun _ -> P.compile_time mode sources) in
    List.fold_left min infinity ts
  in
  let base = measure `Baseline in
  let with_mlt = measure `With_mlt in
  let match_only = measure `Match_only in
  Printf.printf "lowering only:        %.4f s\n" base;
  Printf.printf "with MLT raising:     %.4f s\n" with_mlt;
  Printf.printf "tactic matching only: %.4f s (%.2f ms/kernel)\n" match_only
    (match_only /. 16. *. 1e3);
  Printf.printf
    "overhead:             %+.1f%%   (paper: +12%% -- 0.64 s vs 0.72 s)\n"
    ((with_mlt -. base) /. base *. 100.);
  Printf.printf
    "note: the percentage is not directly comparable — the paper's \
     baseline\nincludes MLIR's full conversion to the LLVM dialect, ~two \
     orders of\nmagnitude more lowering work than this reproduction's \
     affine->SCF step.\nThe paper's actual claim — declarative matching is \
     near-free, unlike\nIDL's +82%% constraint solving — is visible in the \
     absolute matching cost.\n";
  (* Per-pass attribution of the with-MLT pipeline: one instrumented run
     over all kernels, aggregated by pass. *)
  let pm = Pass.create_manager () in
  let attempts0, rewrites0 = Rewriter.counter_totals () in
  ignore (P.compile_time ~pm `With_mlt sources);
  let attempts1, rewrites1 = Rewriter.counter_totals () in
  Printf.printf
    "\nper-pass breakdown (with-mlt, 1 run over %d kernels):\n"
    (List.length sources);
  print_string (Pass.summary_table pm);
  Printf.printf "pass-stats: %s\n" (Pass.summary_json pm);
  (* Every driver run happens inside some pass, so the per-pass rows must
     account for exactly the work the domain's totals saw. *)
  let attempts, rewrites =
    List.fold_left
      (fun (a, r) s -> (a + s.Pass.s_match_attempts, r + s.Pass.s_rewrites))
      (0, 0) (Pass.summarize pm)
  in
  if attempts <> attempts1 - attempts0 || rewrites <> rewrites1 - rewrites0
  then
    Support.Diag.errorf
      "bench overhead: per-pass rows count %d attempts / %d rewrites, the \
       domain totals %d / %d"
      attempts rewrites (attempts1 - attempts0) (rewrites1 - rewrites0);
  Printf.printf
    "per-pass counts match the domain totals: %d attempts, %d rewrites\n"
    attempts rewrites

(* ---------------- Micro benchmarks (bechamel) ---------------------------- *)

let micro () =
  sep "Infrastructure micro-benchmarks (bechamel)";
  let open Bechamel in
  let gemm_src = W.mm ~ni:16 ~nj:16 ~nk:16 () in
  let prebuilt = Met.Emit_affine.translate gemm_src in
  let body =
    let f = Option.get (Core.find_func prebuilt "mm") in
    let loops =
      Affine.Loops.perfect_nest (List.hd (Affine.Loops.top_level_loops f))
    in
    Affine.Affine_ops.for_body (List.nth loops 2)
  in
  let match_only () =
    let ctx = Matchers.Access.create_ctx () in
    let i = Matchers.Access.placeholder ctx in
    let j = Matchers.Access.placeholder ctx in
    let k = Matchers.Access.placeholder ctx in
    let c = Matchers.Access.array_placeholder ctx in
    let a = Matchers.Access.array_placeholder ctx in
    let b = Matchers.Access.array_placeholder ctx in
    let open Matchers.Access in
    ignore
      (match_block ctx
         (Contraction
            {
              out = access c [ p i; p j ];
              in1 = access a [ p i; p k ];
              in2 = access b [ p k; p j ];
            })
         body)
  in
  let raise_gemm () =
    ignore (P.prepare_schedule (P.Config P.Mlt_linalg) gemm_src)
  in
  let chain_dp () =
    ignore
      (Transforms.Matrix_chain.optimal
         [| 30; 35; 15; 5; 10; 20; 25; 40; 12; 33; 7 |])
  in
  let cache = MM.fresh_hierarchy MM.intel_i9 in
  let cache_1k () =
    for i = 0 to 999 do
      ignore (Machine.Cache.access_hierarchy cache (i * 64))
    done
  in
  let tdl_to_tds () =
    ignore (Tdl.Frontend.lower_source Tdl.Frontend.ttgt_tdl)
  in
  let tests =
    [
      Test.make ~name:"access-matcher (gemm stmt)" (Staged.stage match_only);
      Test.make ~name:"tdl->tds (ttgt tactic)" (Staged.stage tdl_to_tds);
      Test.make ~name:"full mlt-linalg pipeline (16^3 gemm)"
        (Staged.stage raise_gemm);
      Test.make ~name:"matrix-chain DP (n=10)" (Staged.stage chain_dp);
      Test.make ~name:"cache hierarchy (1k accesses)" (Staged.stage cache_1k);
    ]
  in
  List.iter
    (fun t ->
      (* --quick keeps this usable as a CI smoke test (scripts/check.sh):
         the numbers are noisier but every benchmarked path still runs. *)
      let cfg =
        if !quick then
          Benchmark.cfg ~limit:200 ~quota:(Time.millisecond 50.) ()
        else
          Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
      in
      let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] t in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name res ->
          match Analyze.OLS.estimates res with
          | Some [ est ] -> Printf.printf "%-42s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-42s (no estimate)\n" name)
        results)
    tests

(* ---------------- Interpreter engines ----------------------------------- *)

(* Walk-vs-compiled throughput on loop-level IR (no library-call fast
   paths): the staged engine's reason to exist is executing raw affine/scf
   loop nests, where the walker pays hash lookups and string dispatch per
   operation per iteration. Also writes BENCH_interp.json for machines. *)
let interp () =
  sep "Interpreter engines: tree-walking oracle vs staged closures";
  let n = if !quick then 16 else 64 in
  let lower_to_scf src =
    let m = Met.Emit_affine.translate src in
    Core.walk m (fun op ->
        if Core.is_func op then Transforms.Lower_affine.run op);
    Verifier.verify m;
    m
  in
  let cases =
    [
      ("mm/affine", Met.Emit_affine.translate (W.mm ~ni:n ~nj:n ~nk:n ()));
      ("mm/scf", lower_to_scf (W.mm ~ni:n ~nj:n ~nk:n ()));
      ( "atax/affine",
        Met.Emit_affine.translate (W.atax ~m:(4 * n) ~n:(4 * n) ()) );
      ("gesummv/affine", Met.Emit_affine.translate (W.gesummv ~n:(4 * n) ()));
    ]
  in
  let func m =
    List.hd (List.filter Core.is_func (Core.ops_of_block (Core.module_block m)))
  in
  let fresh_args f =
    List.mapi
      (fun i (p : Core.value) ->
        let b = Interp.Buffer.of_type p.Core.v_typ in
        Interp.Buffer.randomize ~seed:i b;
        b)
      (Core.func_args f)
  in
  let time_once run =
    let t0 = Unix.gettimeofday () in
    run ();
    Unix.gettimeofday () -. t0
  in
  let best reps run = List.fold_left min infinity (List.init reps (fun _ -> time_once run)) in
  let reps = if !quick then 1 else 3 in
  Printf.printf "%-16s %12s %12s %9s %12s %9s %6s %6s\n" "kernel" "walk (s)"
    "compiled (s)" "speedup" "stage (s)" "checked" "fused" "levels";
  let rows =
    List.map
      (fun (name, m) ->
        let f = func m in
        let stage_t = time_once (fun () -> ignore (Interp.Compile.compile_func f)) in
        let compiled = Interp.Compile.compile_func f in
        (* Differential sanity on this exact module before timing: the two
           engines must produce bit-identical buffers. *)
        let wargs = fresh_args f and cargs = fresh_args f in
        Interp.Eval.run_func ~engine:Interp.Eval.Walk f wargs;
        Interp.Compile.execute compiled cargs;
        List.iter2
          (fun a b ->
            if Interp.Buffer.max_abs_diff a b <> 0. then
              failwith ("interp bench: engines disagree on " ^ name))
          wargs cargs;
        let walk_t =
          best reps (fun () ->
              Interp.Eval.run_func ~engine:Interp.Eval.Walk f wargs)
        in
        let compiled_t =
          best reps (fun () -> Interp.Compile.execute compiled cargs)
        in
        Printf.printf "%-16s %12.6f %12.6f %8.1fx %12.6f %6d/%-3d %6d %6d\n"
          name walk_t compiled_t (walk_t /. compiled_t) stage_t
          compiled.Interp.Compile.c_checked_accesses
          (compiled.Interp.Compile.c_checked_accesses
          + compiled.Interp.Compile.c_unchecked_accesses)
          compiled.Interp.Compile.c_fused_loops
          compiled.Interp.Compile.c_fused_levels;
        (name, walk_t, compiled_t, stage_t, compiled))
      cases
  in
  Printf.printf
    "(speedup = walker / compiled wall-clock; stage = one-time closure \
     compilation;\n checked = accesses the interval analysis could not prove \
     in bounds;\n fused = perfect loop nests run as one native \
     multiply-accumulate walk;\n levels = the loop levels of those \
     nests.)\n";
  Support.Atomic_io.with_file ~path:"BENCH_interp.json" (fun oc ->
  Printf.fprintf oc
    "{\n  \"run_meta\": %s,\n  \"quick\": %b,\n  \"n\": %d,\n  \"results\": [\n"
    (Support.Run_meta.to_string ())
    !quick n;
  List.iteri
    (fun i (name, walk_t, compiled_t, stage_t, compiled) ->
      Printf.fprintf oc
        "    {\"kernel\": %S, \"walk_s\": %.9f, \"compiled_s\": %.9f, \
         \"speedup\": %.2f, \"stage_s\": %.9f, \"checked_accesses\": %d, \
         \"unchecked_accesses\": %d, \"fused_loops\": %d, \
         \"fused_levels\": %d}%s\n"
        name walk_t compiled_t (walk_t /. compiled_t) stage_t
        compiled.Interp.Compile.c_checked_accesses
        compiled.Interp.Compile.c_unchecked_accesses
        compiled.Interp.Compile.c_fused_loops
        compiled.Interp.Compile.c_fused_levels
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n");
  Printf.printf "wrote BENCH_interp.json\n"

(* ---------------- Frozen pattern sets ------------------------------------ *)

(* Compiled dispatch (root index + prefix decision tree) vs the PR 4
   root-index-only proxy ([Frozen.strip_prefixes]) vs the unindexed scan
   ([Frozen.relax]), on the heaviest pattern-set workload the repo has:
   progressive raising from the SCF level (SCF -> affine -> linalg) with
   one combined greedy set. All three variants are contract-preserving
   relaxations of the same descriptors, so the comparison isolates
   dispatch: identical printed IR and application counts are asserted
   per kernel, only the attempt counters may differ. Writes
   BENCH_patterns.json. *)
let patterns_section () =
  sep "Frozen pattern sets: compiled dispatch vs root index vs unindexed scan";
  let build_set () =
    Transforms.Raise_scf.patterns ()
    @ [ Transforms.Dce.pattern () ]
    @ Transforms.Canonicalize.patterns ()
    @ Transforms.Tactics.all ()
  in
  let to_scf src =
    let m = Met.Emit_affine.translate src in
    Core.walk m (fun op ->
        if Core.is_func op then Transforms.Lower_affine.run op);
    Verifier.verify m;
    m
  in
  (* Build each variant's set independently so no matcher or stats state
     is shared between the runs being compared. The driver is
     [apply_sweeps] — the one the in-tree raise-scf pass uses — so each
     op is visited once per sweep and the attempt counters measure
     dispatch over the real op population rather than worklist churn. *)
  let variant_frozen = function
    | `Compiled -> Rewriter.freeze (build_set ())
    | `Stripped -> Rewriter.Frozen.strip_prefixes (Rewriter.freeze (build_set ()))
    | `Relaxed -> Rewriter.Frozen.relax (Rewriter.freeze (build_set ()))
  in
  let run_variant variant src =
    let m = to_scf src in
    let fz = variant_frozen variant in
    let attempts0, _ = Rewriter.counter_totals () in
    let apps = Rewriter.apply_sweeps m fz in
    let attempts1, _ = Rewriter.counter_totals () in
    (apps, attempts1 - attempts0, Printer.op_to_string m)
  in
  let set_size = List.length (build_set ()) in
  Printf.printf
    "combined set: %d patterns (scf-raise + dce + canonicalize + tactics)\n"
    set_size;
  Printf.printf "%-16s %10s %10s %10s %8s %8s %6s\n" "kernel" "compiled"
    "rootonly" "unindexed" "ratio" "applied" "same";
  let total_compiled = ref 0
  and total_stripped = ref 0
  and total_relaxed = ref 0 in
  let mismatches = ref 0 in
  let rows =
    List.map
      (fun (name, src, _) ->
        let apps_c, att_c, ir_c = run_variant `Compiled src in
        let apps_s, att_s, ir_s = run_variant `Stripped src in
        let apps_r, att_r, ir_r = run_variant `Relaxed src in
        let same =
          apps_c = apps_r && apps_c = apps_s && String.equal ir_c ir_r
          && String.equal ir_c ir_s
        in
        if not same then incr mismatches;
        total_compiled := !total_compiled + att_c;
        total_stripped := !total_stripped + att_s;
        total_relaxed := !total_relaxed + att_r;
        Printf.printf "%-16s %10d %10d %10d %7.1fx %8d %6s\n" name att_c att_s
          att_r
          (float_of_int att_r /. float_of_int (max 1 att_c))
          apps_c
          (if same then "yes" else "NO");
        (name, att_c, att_s, att_r, apps_c, same))
      (W.figure9_suite ())
  in
  let ratio = float_of_int !total_relaxed /. float_of_int (max 1 !total_compiled) in
  let prefix_ratio =
    float_of_int !total_stripped /. float_of_int (max 1 !total_compiled)
  in
  Printf.printf "%-16s %10d %10d %10d %7.1fx\n" "total" !total_compiled
    !total_stripped !total_relaxed ratio;
  Printf.printf
    "compiled dispatch attempts %.1fx fewer matches than the unindexed scan \
     (target: >= 5x)\nand %.2fx fewer than the root index alone -- %s\n"
    ratio prefix_ratio
    (if ratio >= 5. && !total_compiled < !total_stripped && !mismatches = 0
     then "OK"
     else "FAILED (ratio below target, no prefix gain, or result mismatch)");

  (* Dispatch micro-benchmark: one full greedy raise of an 8^3 gemm at
     the SCF level per run, frozen sets prebuilt (freezing compiles the
     TDL tactics; reusing the sets matches how passes hold them). *)
  let open Bechamel in
  let gemm_src = W.mm ~ni:8 ~nj:8 ~nk:8 () in
  let fz_compiled = variant_frozen `Compiled in
  let fz_stripped = variant_frozen `Stripped in
  let fz_relaxed = variant_frozen `Relaxed in
  let greedy fz () = ignore (Rewriter.apply_sweeps (to_scf gemm_src) fz) in
  let micro_results = ref [] in
  List.iter
    (fun (mname, fz) ->
      let cfg =
        if !quick then
          Benchmark.cfg ~limit:200 ~quota:(Time.millisecond 50.) ()
        else
          Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
      in
      let t = Test.make ~name:mname (Staged.stage (greedy fz)) in
      let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] t in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun n res ->
          match Analyze.OLS.estimates res with
          | Some [ est ] ->
              micro_results := (n, est) :: !micro_results;
              Printf.printf "%-42s %12.1f ns/run\n" n est
          | _ -> Printf.printf "%-42s (no estimate)\n" n)
        results)
    [
      ("greedy scf raise 8^3 gemm (compiled)", fz_compiled);
      ("greedy scf raise 8^3 gemm (root-only)", fz_stripped);
      ("greedy scf raise 8^3 gemm (unindexed)", fz_relaxed);
    ];

  Support.Atomic_io.with_file ~path:"BENCH_patterns.json" (fun oc ->
  Printf.fprintf oc
    "{\n  \"run_meta\": %s,\n  \"quick\": %b,\n  \"set_size\": %d,\n  \
     \"total_attempts_indexed\": \
     %d,\n  \"total_attempts_rootonly\": %d,\n  \
     \"total_attempts_unindexed\": %d,\n  \"attempt_ratio\": %.2f,\n  \
     \"prefix_attempt_ratio\": %.3f,\n  \"results_identical\": %b,\n  \
     \"kernels\": [\n"
    (Support.Run_meta.to_string ())
    !quick set_size !total_compiled !total_stripped !total_relaxed ratio
    prefix_ratio (!mismatches = 0);
  List.iteri
    (fun i (name, att_c, att_s, att_r, apps, same) ->
      Printf.fprintf oc
        "    {\"kernel\": %S, \"attempts_indexed\": %d, \
         \"attempts_rootonly\": %d, \"attempts_unindexed\": %d, \
         \"applications\": %d, \"identical\": %b}%s\n"
        name att_c att_s att_r apps same
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"micro_ns_per_run\": {\n";
  let micro = List.rev !micro_results in
  List.iteri
    (fun i (n, est) ->
      Printf.fprintf oc "    %S: %.1f%s\n" n est
        (if i = List.length micro - 1 then "" else ","))
    micro;
  Printf.fprintf oc "  }\n}\n");
  Printf.printf "wrote BENCH_patterns.json\n";

  (* Tracing call sites stay in the rewrite hot path permanently; with no
     sink installed each must cost no more than a ref read. Budget is
     generous (CI noise) — a regression to eager argument construction
     would blow past it by orders of magnitude. *)
  if Trace.enabled () then
    Printf.printf
      "disabled-trace overhead check skipped (a trace sink is installed)\n"
  else begin
    let calls = 2_000_000 in
    let t0 = Unix.gettimeofday () in
    for i = 1 to calls do
      Trace.instant
        ~args:[ ("i", Trace.A_int i) ]
        ~cat:"bench" "noop"
    done;
    let per_call_ns =
      (Unix.gettimeofday () -. t0) /. float_of_int calls *. 1e9
    in
    Printf.printf "disabled-trace emit: %.1f ns/call over %d calls (budget: 50 ns)\n"
      per_call_ns calls;
    if per_call_ns > 50. then
      Support.Diag.errorf
        "bench patterns: disabled tracing costs %.1f ns/call (> 50 ns budget)"
        per_call_ns
  end;
  (* The metrics registry shares the rewrite hot path with tracing (the
     cache and interpreter call [observe] per operation) and the same
     budget: disabled, an update is one atomic read. *)
  if Metrics.enabled () then
    Printf.printf
      "disabled-metrics overhead check skipped (--metrics is on)\n"
  else begin
    let h = Metrics.histogram "bench_noop_seconds" in
    let calls = 2_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      Metrics.observe h 1e-6
    done;
    let per_call_ns =
      (Unix.gettimeofday () -. t0) /. float_of_int calls *. 1e9
    in
    Printf.printf
      "disabled-metrics observe: %.1f ns/call over %d calls (budget: 50 ns)\n"
      per_call_ns calls;
    if per_call_ns > 50. then
      Support.Diag.errorf
        "bench patterns: disabled metrics cost %.1f ns/call (> 50 ns budget)"
        per_call_ns
  end;
  if ratio < 5. then
    Support.Diag.errorf
      "bench patterns: attempt reduction %.1fx below the 5x target" ratio;
  if !total_compiled >= !total_stripped then
    Support.Diag.errorf
      "bench patterns: prefix trees reduced nothing over the root index \
       (%d vs %d attempts)"
      !total_compiled !total_stripped;
  if !mismatches > 0 then
    Support.Diag.errorf
      "bench patterns: dispatch variants diverge on %d kernels" !mismatches

(* ---------------- Scale: million-op modules ------------------------------ *)

(* The gate for the compiled matcher automaton: a synthesized module of
   >= 1M ops (deep loop-nest batteries from
   [Workloads.Polybench.scale_battery], lowered to the SCF level and
   cloned to the target size), raised and canonicalized end-to-end with
   the combined greedy set. Three dispatch variants run on structurally
   identical fresh modules: compiled (root index + prefix decision
   trees), root-only ([Frozen.strip_prefixes], the PR 4 proxy) and
   unindexed ([Frozen.relax]). Wall-clock, attempts, and printed-IR
   digests are recorded in BENCH_scale.json; the >= 5x end-to-end target
   vs the unindexed scan is always measured but only asserted under
   MLT_BENCH_ASSERT_SPEEDUP=1 (shared CI hosts).
   Result identity is always asserted. *)
let scale () =
  sep "Scale: raise + canonicalize a synthesized million-op module";
  let target = if !quick then 60_000 else 1_000_000 in
  let build_set () =
    Transforms.Raise_scf.patterns ()
    @ [ Transforms.Dce.pattern () ]
    @ Transforms.Canonicalize.patterns ()
    @ Transforms.Tactics.all ()
  in
  (* Seed functions: every battery kernel translated once; the
     synthesized module clones these. Most seeds stay at the affine
     level — MET's real input, where raising means affine -> linalg —
     and one ("mm") is additionally lowered to SCF so every clone batch
     also exercises the full progressive SCF -> affine -> linalg path.
     Cloning is deterministic, so the per-variant modules are
     structurally identical and their printed IR must match
     byte-for-byte after rewriting. *)
  let seeds =
    List.map
      (fun (name, src) ->
        let m = Met.Emit_affine.translate src in
        if String.equal name "mm" then
          Core.walk m (fun op ->
              if Core.is_func op then Transforms.Lower_affine.run op);
        Verifier.verify m;
        let f =
          match
            List.filter Core.is_func (Core.ops_of_block (Core.module_block m))
          with
          | [ f ] -> f
          | _ -> Support.Diag.errorf "bench scale: %s has multiple funcs" name
        in
        let n = ref 0 in
        Core.walk f (fun _ -> incr n);
        (name, f, !n))
      (W.scale_battery ())
  in
  let seed_arr = Array.of_list seeds in
  let synth () =
    let m = Core.create_module () in
    let blk = Core.module_block m in
    let total = ref 0 and i = ref 0 in
    while !total < target do
      let name, f, n = seed_arr.(!i mod Array.length seed_arr) in
      let c = Core.clone_op f in
      Core.set_attr c "sym_name"
        (Attr.Str (Printf.sprintf "%s_%d" name !i));
      Core.append_op blk c;
      total := !total + n;
      incr i
    done;
    (m, !total, !i)
  in
  let _, probe_ops, probe_funcs = synth () in
  Printf.printf
    "synthesized module: %d ops in %d functions (%d seed kernels, target %d)\n%!"
    probe_ops probe_funcs (Array.length seed_arr) target;
  (* Two regimes per variant, on the same fresh module:

     - end-to-end: raise + canonicalize the synthesized module to
       fixpoint. Dominated by the applied rewrites themselves (raising a
       nest to linalg costs ~10us whichever dispatcher found it), which
       every variant pays identically, so dispatch gains are diluted —
       this regime records the honest whole-compile number.
     - steady-state: re-run the same driver on the now-canonical module.
       Zero rewrites fire, so this isolates what a fixpoint driver pays
       per sweep — the dispatch-bound regime the compiled automaton
       targets, and the one that recurs every time a pipeline
       re-canonicalizes an already-clean large module. *)
  let run_variant label make_frozen =
    (* Fresh module and fresh pattern set per variant: no matcher state
       or stats are shared between timed runs. *)
    let m, ops, _ = synth () in
    let fz = make_frozen (Rewriter.freeze (build_set ())) in
    (* Equalize heap state across variants: the first timed run would
       otherwise pay the major-heap growth the others inherit. *)
    Gc.compact ();
    let attempts0, _ = Rewriter.counter_totals () in
    let t0 = Unix.gettimeofday () in
    let apps = Rewriter.apply_sweeps m fz in
    let seconds = Unix.gettimeofday () -. t0 in
    (* Compact again before the steady-state reps: the end-to-end phase
       leaves variant-dependent amounts of garbage (the unindexed scan
       allocates a context per attempted pattern), and the GC share of a
       100ms measurement would otherwise swamp the dispatch difference. *)
    Gc.compact ();
    let steady = ref infinity in
    for _ = 1 to 3 do
      let t1 = Unix.gettimeofday () in
      let re_apps = Rewriter.apply_sweeps m fz in
      steady := Float.min !steady (Unix.gettimeofday () -. t1);
      if re_apps <> 0 then
        Support.Diag.errorf
          "bench scale: %s re-sweep applied %d rewrites on a canonical module"
          label re_apps
    done;
    let steady = !steady in
    let attempts1, _ = Rewriter.counter_totals () in
    let digest = Digest.to_hex (Digest.string (Printer.op_to_string m)) in
    Printf.printf "%-10s %9.3f s %12.4f s %10d attempts %8d applied  %s\n%!"
      label seconds steady (attempts1 - attempts0) apps digest;
    (seconds, steady, attempts1 - attempts0, apps, digest, ops)
  in
  Printf.printf "%-10s %11s %14s %19s %16s  %s\n" "variant" "end-to-end"
    "steady-state" "attempts" "applied" "ir-digest";
  (* Untimed warm-up: page in the code paths and grow the heap once. *)
  ignore (run_variant "(warm-up)" Fun.id);
  let sec_c, std_c, att_c, apps_c, dig_c, ops_c = run_variant "compiled" Fun.id in
  let sec_s, std_s, att_s, apps_s, dig_s, _ =
    run_variant "root-only" Rewriter.Frozen.strip_prefixes
  in
  let sec_r, std_r, att_r, apps_r, dig_r, _ =
    run_variant "unindexed" Rewriter.Frozen.relax
  in
  let identical =
    apps_c = apps_s && apps_c = apps_r && String.equal dig_c dig_s
    && String.equal dig_c dig_r
  in
  let speedup = sec_r /. sec_c in
  let speedup_vs_root = sec_s /. sec_c in
  let steady_speedup = std_r /. std_c in
  let attempt_ratio = float_of_int att_r /. float_of_int (max 1 att_c) in
  Printf.printf
    "end-to-end: %.2fx vs unindexed, %.2fx vs root index (rewrite work \
     dominates — see docs/PERF.md)\n\
     steady-state dispatch: %.2fx vs unindexed (target >= 5x), %.2fx vs \
     root index\n\
     match attempts: %.1fx fewer than unindexed (deterministic; always \
     asserted >= 5x); results %s\n"
    speedup speedup_vs_root steady_speedup (std_s /. std_c) attempt_ratio
    (if identical then "identical" else "DIVERGED");
  let assert_speedup =
    match Sys.getenv_opt "MLT_BENCH_ASSERT_SPEEDUP" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false
  in
  let module J = Support.Json in
  Support.Atomic_io.write_file ~path:"BENCH_scale.json"
    (J.to_string
       (J.Obj
          [
            ("run_meta", Support.Run_meta.json ());
            ("quick", J.Bool !quick);
            ("target_ops", J.num_int target);
            ("module_ops", J.num_int ops_c);
            ("module_funcs", J.num_int probe_funcs);
            ("set_size", J.num_int (List.length (build_set ())));
            ("compiled_seconds", J.Num sec_c);
            ("rootonly_seconds", J.Num sec_s);
            ("unindexed_seconds", J.Num sec_r);
            ("compiled_steady_seconds", J.Num std_c);
            ("rootonly_steady_seconds", J.Num std_s);
            ("unindexed_steady_seconds", J.Num std_r);
            ("compiled_attempts", J.num_int att_c);
            ("rootonly_attempts", J.num_int att_s);
            ("unindexed_attempts", J.num_int att_r);
            ("applications", J.num_int apps_c);
            ("attempt_ratio", J.Num attempt_ratio);
            ("speedup", J.Num speedup);
            ("speedup_vs_rootonly", J.Num speedup_vs_root);
            ("steady_speedup", J.Num steady_speedup);
            ("speedup_target", J.Num 5.0);
            ("speedup_asserted", J.Bool assert_speedup);
            ("results_identical", J.Bool identical);
          ])
    ^ "\n");
  Printf.printf "wrote BENCH_scale.json\n";
  if not identical then
    Support.Diag.errorf
      "bench scale: dispatch variants produced different IR (applied \
       %d/%d/%d)"
      apps_c apps_s apps_r;
  (* Attempt counts are deterministic — independent of host load and GC —
     so this floor is asserted unconditionally, like the patterns gate. *)
  if attempt_ratio < 5. then
    Support.Diag.errorf
      "bench scale: attempt reduction %.1fx below the 5x floor" attempt_ratio;
  if assert_speedup && steady_speedup < 5. then
    Support.Diag.errorf
      "bench scale: %.2fx steady-state dispatch speedup below the 5x target"
      steady_speedup;
  if not assert_speedup then
    Printf.printf
      "(speedup target 5x reported, not asserted — set \
       MLT_BENCH_ASSERT_SPEEDUP=1 to enforce)\n"

(* ---------------- Schedule autotuner ------------------------------------- *)

(* The machine-model autotuner end-to-end: search the gemm schedule
   space (Pluto tilings/fusions/interchange + BLIS blockings) as
   transform scripts on a domain pool, and require the winner to be at
   least as fast on the model as Pluto_default — the floor the paper's
   tuned schedules always clear. Writes BENCH_tune.json ("results" holds
   every candidate). *)
let tune_section () =
  sep "Schedule autotuner: transform-script search on the machine model";
  let machine = MM.amd_2920x in
  let n = if !quick then 64 else 128 in
  let src = W.mm ~ni:n ~nj:n ~nk:n () in
  let flops = 2. *. float_of_int (n * n * n) in
  let cores = Domain.recommended_domain_count () in
  let t0 = Unix.gettimeofday () in
  let outcome =
    P.search
      ~space:(fun ~max_trip -> Tune.gemm_space ~quick:!quick ~max_trip ())
      machine src
  in
  let wall = Unix.gettimeofday () -. t0 in
  let st = outcome.Tune.o_stats in
  let default_report = time P.Pluto_default machine src in
  let default_seconds = default_report.Machine.Perf.seconds in
  Printf.printf
    "gemm %dx%dx%d on %s: %d candidates (%d evaluated, %d simulated) on %d \
     domains in %.3fs\n"
    n n n machine.MM.name st.Tune.t_candidates st.Tune.t_evaluated
    st.Tune.t_simulated cores wall;
  Printf.printf "pluto-default:   %.6f s (%6.2f GFLOPS)\n" default_seconds
    (flops /. default_seconds /. 1e9);
  Printf.printf "best (%s): %.6f s (%6.2f GFLOPS)\n"
    outcome.Tune.o_best.Tune.c_name st.Tune.t_best_seconds
    (flops /. st.Tune.t_best_seconds /. 1e9);
  let module J = Support.Json in
  let results =
    List.map
      (fun (ev : Tune.evaluation) ->
        J.Obj
          [
            ("name", J.Str ev.Tune.ev_candidate.Tune.c_name);
            ( "seconds",
              match ev.Tune.ev_seconds with
              | Some s -> J.Num s
              | None -> J.Null );
            ( "error",
              match ev.Tune.ev_error with
              | Some e -> J.Str e
              | None -> J.Null );
          ])
      outcome.Tune.o_evaluations
  in
  let best_script =
    Script.print
      (Script.of_steps outcome.Tune.o_best.Tune.c_steps)
  in
  Support.Atomic_io.write_file ~path:"BENCH_tune.json"
    (J.to_string
       (J.Obj
          [
            ("run_meta", Support.Run_meta.json ());
            ("quick", J.Bool !quick);
            ("n", J.num_int n);
            ("machine", J.Str machine.MM.name);
            ("domains", J.num_int cores);
            ("wall_seconds", J.Num wall);
            ("candidates", J.num_int st.Tune.t_candidates);
            ("evaluated", J.num_int st.Tune.t_evaluated);
            ("simulated", J.num_int st.Tune.t_simulated);
            ("pluto_default_seconds", J.Num default_seconds);
            ("best_name", J.Str outcome.Tune.o_best.Tune.c_name);
            ("best_seconds", J.Num st.Tune.t_best_seconds);
            ("best_script", J.Str best_script);
            ("results", J.List results);
          ])
    ^ "\n");
  Printf.printf "wrote BENCH_tune.json\n";
  (* The model is deterministic, so this floor holds on any host: the
     searched space contains Pluto_default itself. *)
  if st.Tune.t_best_seconds > default_seconds +. 1e-12 then
    Support.Diag.errorf
      "bench tune: best schedule %.6fs slower than pluto-default %.6fs"
      st.Tune.t_best_seconds default_seconds

(* ---------------- Ablations (design choices from DESIGN.md) ------------- *)

let ablation () =
  sep "Ablation 1: commutative operation matching";
  (* The paper's m_Op<AddOp>(a, m_Op<MulOp>(b, c)) is fixed-shape; our
     matchers try operand permutations. Four semantically identical ways
     of writing the MAC statement: *)
  let variants =
    [
      "C[i][j] = C[i][j] + A[i][k] * B[k][j];";
      "C[i][j] = A[i][k] * B[k][j] + C[i][j];";
      "C[i][j] = C[i][j] + B[k][j] * A[i][k];";
      "C[i][j] = B[k][j] * A[i][k] + C[i][j];";
    ]
  in
  let count commutative =
    List.length
      (List.filter
         (fun stmt ->
           let src =
             Printf.sprintf
               "void f(float A[8][8], float B[8][8], float C[8][8]) { for \
                (int i = 0; i < 8; ++i) for (int j = 0; j < 8; ++j) for \
                (int k = 0; k < 8; ++k) %s }"
               stmt
           in
           let m = Met.Emit_affine.translate src in
           let store = ref None in
           Ir.Core.walk m (fun op ->
               if Affine.Affine_ops.is_store op then store := Some op);
           let stored =
             Affine.Affine_ops.stored_value (Option.get !store)
           in
           let open Matchers.Op_match in
           let mk o = if commutative then op_commutative o else op o in
           matches
             (mk "arith.addf" [ any; mk "arith.mulf" [ any; any ] ])
             stored)
         variants)
  in
  Printf.printf "fixed-shape m_Op (as in Listing 5):   %d / 4 variants\n"
    (count false);
  Printf.printf "commutative m_Op (this reproduction): %d / 4 variants\n"
    (count true);

  sep "Ablation 2: min-bounded edge tiles vs divisible-only tiling";
  let n = 200 in
  (* 200 is not divisible by 32: min-bounds let the preferred tile size
     apply anyway; a divisible-only tiler must fall back to 25 or 40. *)
  let src = W.mm ~ni:n ~nj:n ~nk:n () in
  let machine = MM.amd_2920x in
  let flops = 2. *. float_of_int (n * n * n) in
  (* Compare in the vectorized regime (as Pluto-best would run), where
     compute no longer masks locality. *)
  let timed size =
    steps_gflops
      (Script.of_pluto
         { Transforms.Pluto.tile = size; fusion = Transforms.Loop_fuse.No_fuse;
           vectorize = true })
      machine src ~flops
  in
  Printf.printf "tile 32 with min bounds:   %6.2f GFLOPS\n" (timed 32);
  Printf.printf "tile 40 (divisible):       %6.2f GFLOPS\n" (timed 40);
  Printf.printf "tile 25 (divisible):       %6.2f GFLOPS\n" (timed 25);
  Printf.printf "tile 8  (divisible):       %6.2f GFLOPS\n" (timed 8);
  Printf.printf "untiled (vectorized):      %6.2f GFLOPS\n" (timed 1);

  sep "Ablation 3: TTGT raising vs tiling the contraction loops directly";
  let name, spec, sizes =
    List.hd (Workloads.Contraction_spec.paper_benchmarks ())
  in
  let csrc =
    Workloads.Contraction_spec.c_source spec ~sizes ~name:"contraction" ()
  in
  let cflops = Workloads.Contraction_spec.flops spec ~sizes in
  let direct =
    steps_gflops [ Script.Tile [ 32 ] ] machine csrc ~flops:cflops
  in
  let ttgt = gflops P.Mlt_linalg machine csrc ~flops:cflops in
  Printf.printf "%s: tile the 5-d loops directly: %6.2f GFLOPS\n" name direct;
  Printf.printf "%s: TTGT to matmul (MLT-Linalg): %6.2f GFLOPS\n" name ttgt;

  sep "Ablation 4: fusion heuristics on gesummv";
  let gsrc = W.gesummv ~n:256 () in
  let gflops_count = 4. *. (256. ** 2.) in
  List.iter
    (fun fusion ->
      Printf.printf "%-10s %6.2f GFLOPS\n"
        (Transforms.Loop_fuse.heuristic_to_string fusion)
        (steps_gflops
           (Script.of_pluto
              { Transforms.Pluto.tile = 32; fusion; vectorize = false })
           machine gsrc ~flops:gflops_count))
    [ Transforms.Loop_fuse.No_fuse; Transforms.Loop_fuse.Smart_fuse;
      Transforms.Loop_fuse.Max_fuse ];

  sep "Ablation 5: executable BLIS schedule vs naive loops (trace model)";
  (* The sec-5.1 path is modelled analytically; Blis_schedule makes the
     same packed schedule executable IR. Trace-simulating it shows the
     locality gain the analytical model credits, at the issue width plain
     loop code gets (the remaining gap to the analytical number is the
     register blocking/unrolling a toy codegen does not perform). *)
  let n5 = 128 in
  let src5 = W.mm ~ni:n5 ~nj:n5 ~nk:n5 () in
  let flops5 = 2. *. float_of_int (n5 * n5 * n5) in
  let naive = gflops P.Clang_O3 machine src5 ~flops:flops5 in
  let blis_traced =
    steps_gflops
      [
        Script.Raise "affine-matmul";
        Script.Blis_schedule
          { Transforms.Blis_schedule.mc = 32; nc = 64; kc = 32 };
      ]
      machine src5 ~flops:flops5
  in
  Printf.printf "naive loops (traced):        %6.2f GFLOPS\n" naive;
  Printf.printf "BLIS schedule (traced):      %6.2f GFLOPS\n" blis_traced;
  Printf.printf "BLIS schedule (analytical):  %6.2f GFLOPS\n"
    (flops5
    /. Machine.Blas_model.blis_codegen_gemm_seconds machine ~m:n5 ~n:n5 ~k:n5
    /. 1e9)

(* ---------------- driver ------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then (
          quick := true;
          false)
        else if String.starts_with ~prefix:"--trace=" a then (
          trace_file :=
            Some (String.sub a 8 (String.length a - 8));
          false)
        else if String.starts_with ~prefix:"--metrics=" a then (
          metrics_file :=
            Some (String.sub a 10 (String.length a - 10));
          false)
        else true)
      args
  in
  let sections =
    if args = [] || args = [ "all" ] then
      [
        "fig8"; "sec51"; "fig9"; "table2"; "overhead"; "ablation"; "interp";
        "patterns"; "scale"; "micro"; "tune";
      ]
    else args
  in
  let run_sections () =
    List.iter
      (function
        | "fig8" -> fig8 ()
        | "sec51" -> sec51 ()
        | "fig9" -> fig9 ()
        | "table2" -> table2 ()
        | "overhead" -> overhead ()
        | "ablation" -> ablation ()
        | "interp" -> interp ()
        | "patterns" -> patterns_section ()
        | "scale" -> scale ()
        | "micro" -> micro ()
        | "tune" -> tune_section ()
        | other -> Printf.eprintf "unknown section %S\n" other)
      sections
  in
  let with_trace f =
    match !trace_file with
    | None -> f ()
    | Some path ->
        let sink = Trace.Chrome.create () in
        Fun.protect
          ~finally:(fun () ->
            Trace.Chrome.detach sink;
            Trace.Chrome.write sink path;
            Printf.printf "wrote trace (%d events) to %s\n"
              (Trace.Chrome.count sink) path)
          f
  in
  match !metrics_file with
  | None -> with_trace run_sections
  | Some path ->
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Metrics.write ~path (Metrics.snapshot ());
          Printf.printf "wrote metrics to %s\n" path)
        (fun () -> with_trace run_sections)
