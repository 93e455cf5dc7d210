(* Quickstart: the paper's headline flow, end to end.

   A GEMM written as plain C loops enters the multi-level IR through MET
   at the Affine level, Multi-Level Tactics raises it to the Linalg
   dialect, the result is checked semantically equivalent with the
   interpreter, and both versions are timed on a machine model.

     dune exec examples/quickstart.exe *)

let c_source =
  {|
void gemm(float A[128][128], float B[128][128], float C[128][128]) {
  for (int i = 0; i < 128; ++i)
    for (int j = 0; j < 128; ++j) {
      C[i][j] = 0.0;
      for (int k = 0; k < 128; ++k)
        C[i][j] += A[i][k] * B[k][j];
    }
}
|}

let () =
  print_endline "--- 1. C source ---";
  print_string c_source;

  (* MET: parse the polyhedral C subset, distribute loops, emit Affine. *)
  let m = Met.Emit_affine.translate c_source in
  print_endline "\n--- 2. Affine dialect (entry via MET) ---";
  print_endline (Ir.Printer.op_to_string m);

  (* Keep an untouched copy for the equivalence check. *)
  let reference = Met.Emit_affine.translate c_source in

  (* Multi-Level Tactics: raise loop nests to Linalg operations. The
     standard tactic set is declared in TDL (Listing 8 style). *)
  print_endline "--- 3. The GEMM tactic (TDL) ---";
  print_string Tdl.Frontend.gemm_tdl;
  let raised = Transforms.Tactics.raise_to_linalg m in
  Printf.printf "\n--- 4. After -raise-affine-to-linalg (%d sites raised) ---\n"
    raised;
  print_endline (Ir.Printer.op_to_string m);

  (* The interpreter proves the rewrite preserved the function. *)
  let equal = Interp.Eval.equivalent reference m "gemm" ~seed:42 in
  Printf.printf "--- 5. Interpreter equivalence check: %s ---\n\n"
    (if equal then "PASS" else "FAIL");

  (* Performance on the machine model: the raised program converts to a
     vendor-library call (MLT-Blas) and wins big over the plain loops. *)
  let machine = Machine.Machine_model.amd_2920x in
  let flops = 2. *. (128. ** 3.) in
  let time config =
    Machine.Perf.gflops ~flops
      (fst
         (Mlt.Pipeline.time_schedule_ext (Mlt.Pipeline.Config config) machine
            c_source))
  in
  Printf.printf "--- 6. Simulated performance (%s) ---\n"
    machine.Machine.Machine_model.name;
  List.iter
    (fun config ->
      Printf.printf "  %-14s %8.2f GFLOPS\n"
        (Mlt.Pipeline.config_name config)
        (time config))
    [ Mlt.Pipeline.Clang_O3; Mlt.Pipeline.Pluto_default; Mlt.Pipeline.Mlt_blas ]
