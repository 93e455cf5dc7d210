(* TTGT raising for tensor contractions (§III-A, Listings 2-4).

   The contraction C(a,b,c) += A(a,c,d) * B(d,b) from Listing 2 is raised
   with the explicit TTGT tactic of Listing 3; the TDL frontend emits the
   TableGen-stage TDS of Listing 4, the backend compiles it to matchers
   and builders, and the rewritten program replaces the 4-deep loop nest
   with transpose/reshape/matmul/reshape/transpose at the Linalg level.

     dune exec examples/tensor_contraction.exe *)

let () =
  print_endline "--- 1. The TTGT tactic in TDL (Listing 3) ---";
  print_string Tdl.Frontend.ttgt_tdl;

  let tds = Tdl.Frontend.lower (Tdl.Tdl_parser.parse_one Tdl.Frontend.ttgt_tdl) in
  print_endline "\n--- 2. Generated TDS (Listing 4) ---";
  print_string (Tdl.Tds.to_string tds);

  (* Listing 2's kernel, sizes from the paper's tensor-contraction suite
     (scaled down). *)
  let spec = Workloads.Contraction_spec.parse "abc-acd-db" in
  let sizes = [ ('a', 24); ('b', 32); ('c', 20); ('d', 28) ] in
  let src =
    Workloads.Contraction_spec.c_source spec ~sizes ~init:false ~name:"kern" ()
  in
  print_endline "\n--- 3. The contraction kernel (Listing 2) ---";
  print_string src;

  let m = Met.Emit_affine.translate src in
  let reference = Met.Emit_affine.translate src in
  let patterns = Ir.Rewriter.freeze [ Tdl.Backend.compile tds ] in
  let n = Ir.Rewriter.apply_greedily m patterns in
  Printf.printf "\n--- 4. After applying the tactic (%d match) ---\n" n;
  print_endline (Ir.Printer.op_to_string m);

  let equal = Interp.Eval.equivalent reference m "kern" ~seed:5 in
  Printf.printf "--- 5. Interpreter equivalence: %s ---\n\n"
    (if equal then "PASS" else "FAIL");

  (* Compare the TTGT path against the plain loop nest on the model: the
     data-locality transformation pays off even before BLAS enters. *)
  let machine = Machine.Machine_model.intel_i9 in
  let flops = Workloads.Contraction_spec.flops spec ~sizes in
  List.iter
    (fun config ->
      Printf.printf "  %-12s %8.2f GFLOPS\n"
        (Mlt.Pipeline.config_name config)
        (Machine.Perf.gflops ~flops
           (fst
              (Mlt.Pipeline.time_schedule_ext (Mlt.Pipeline.Config config)
                 machine src))))
    [ Mlt.Pipeline.Clang_O3; Mlt.Pipeline.Mlt_linalg; Mlt.Pipeline.Mlt_blas ]
