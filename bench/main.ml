(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§V) and nothing else; wall-clock throughput is perfbench's
   job, and the checks live in the test suite.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig8    -- Figure 8 only
     dune exec bench/main.exe -- sec51 fig9 table2 overhead ablation
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
     over all kernels, aggregated by pass. test/test_counters.ml pins
     these rows and checks that they sum to the domain's driver totals. *)
  let pm = Pass.create_manager () in
  ignore (P.compile_time ~pm `With_mlt sources);
  Printf.printf
    "\nper-pass breakdown (with-mlt, 1 run over %d kernels):\n"
    (List.length sources);
  print_string (Pass.summary_table pm);
  Printf.printf "pass-stats: %s\n" (Pass.summary_json pm)

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
    [
      ("fig8", fig8); ("sec51", sec51); ("fig9", fig9); ("table2", table2);
      ("overhead", overhead); ("ablation", ablation);
    ]
  in
  let selected =
    if args = [] || args = [ "all" ] then List.map fst sections else args
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then begin
        Printf.eprintf "unknown section %S (sections: %s)\n" name
          (String.concat " " (List.map fst sections));
        exit 2
      end)
    selected;
  let run_sections () =
    List.iter (fun name -> (List.assoc name sections) ()) selected
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
