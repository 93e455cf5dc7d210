(* mlt-sim: run a mini-C kernel through one of the evaluation pipelines
   (or a user-supplied transform script) and report simulated
   performance on a machine model; --tune searches the schedule space.

     mlt-sim gemm.c --config mlt-blas --machine amd-2920x --flops 4194304
     mlt-sim gemm.c --transform-script schedule.mlir
     mlt-sim gemm.c --tune *)

open Cmdliner

let machines =
  List.map
    (fun (m : Machine.Machine_model.t) -> (m.name, m))
    Machine.Machine_model.platforms

let sole_func m =
  match
    List.filter Ir.Core.is_func (Ir.Core.ops_of_block (Ir.Core.module_block m))
  with
  | [ f ] -> f
  | fs ->
      Support.Diag.errorf "mlt-sim: expected one kernel, found %d"
        (List.length fs)

(* Search the gemm schedule space (Pluto tilings/fusions/interchange +
   BLIS blockings) on the machine model and report the winner — and its
   schedule as a reusable transform script. *)
let run_tune ~machine ~quick ~pass_stats ~file src =
  let outcome =
    Mlt.Pipeline.search ~file
      ~space:(fun ~max_trip -> Tune.gemm_space ~quick ~max_trip ())
      machine src
  in
  let st = outcome.Tune.o_stats in
  Printf.printf "machine:          %s\n" machine.Machine.Machine_model.name;
  Printf.printf "candidates:       %d (%d evaluated, %d simulated)\n"
    st.Tune.t_candidates st.Tune.t_evaluated st.Tune.t_simulated;
  Printf.printf "best schedule:    %s\n" outcome.Tune.o_best.Tune.c_name;
  Printf.printf "simulated time:   %.6f s\n" st.Tune.t_best_seconds;
  List.iter
    (fun (ev : Tune.evaluation) ->
      match ev.Tune.ev_seconds with
      | Some s ->
          Printf.printf "  %-28s %.6f s\n" ev.Tune.ev_candidate.Tune.c_name s
      | None ->
          Printf.printf "  %-28s inapplicable\n"
            ev.Tune.ev_candidate.Tune.c_name)
    outcome.Tune.o_evaluations;
  print_string "\nwinning transform script:\n";
  print_string
    (Transform.Script.print
       (Transform.Script.of_steps outcome.Tune.o_best.Tune.c_steps));
  if pass_stats then
    print_endline
      (Cli_common.pass_stats_json ~tune:st (Ir.Pass.create_manager ()))

let run input config script tune quick machine flops execute verify
    timing pass_stats trace metrics remarks =
  try
    Cli_common.with_observability ?metrics ~trace ~remarks @@ fun () ->
    let src = Cli_common.read_file input in
    if tune then begin
      run_tune ~machine ~quick ~pass_stats ~file:input src;
      Ok ()
    end
    else begin
      let schedule =
        match Cli_common.schedule_of_flags ~config ~script with
        | Some s -> s
        | None -> Mlt.Pipeline.Config Mlt.Pipeline.Clang_O3
      in
      (* Pluto-best resolves to its winning script once, here: the
         checks, the execution and the timing below all see it. *)
      let schedule, outcome =
        Mlt.Pipeline.resolve_schedule ~file:input machine src schedule
      in
      let name = Mlt.Pipeline.schedule_name schedule in
      let pm =
        if timing || pass_stats then Some (Ir.Pass.create_manager ()) else None
      in
      if verify then
        if Mlt.Pipeline.check_schedule_semantics ~file:input schedule src then
          Printf.printf "verify:           %s preserves semantics\n" name
        else
          Support.Diag.errorf "mlt-sim: %s pipeline changed kernel semantics"
            name;
      if execute then begin
        let m = Mlt.Pipeline.prepare_schedule ~file:input schedule src in
        let fname = Ir.Core.func_name (sole_func m) in
        let t0 = Unix.gettimeofday () in
        ignore (Interp.Eval.run_on_random m fname ~seed:0);
        let t1 = Unix.gettimeofday () in
        Printf.printf "executed:         %s in %.6f s\n" fname (t1 -. t0)
      end;
      let report, _ =
        Mlt.Pipeline.time_schedule_ext ?pm ~file:input schedule machine src
      in
      let tune_stats = Option.map (fun o -> o.Tune.o_stats) outcome in
      Printf.printf "machine:          %s\n"
        machine.Machine.Machine_model.name;
      Printf.printf "config:           %s\n" name;
      Printf.printf "simulated time:   %.6f s\n" report.Machine.Perf.seconds;
      Printf.printf "  loop code:      %.6f s\n"
        report.Machine.Perf.loop_seconds;
      Printf.printf "  library calls:  %.6f s\n"
        report.Machine.Perf.library_seconds;
      (match flops with
      | Some f ->
          Printf.printf "GFLOPS:           %.2f\n"
            (Machine.Perf.gflops ~flops:f report)
      | None -> ());
      (match pm with
      | Some pm ->
          if timing then (
            Printf.printf "\ncompilation pipeline (wall-clock):\n";
            print_string (Ir.Pass.report_table pm));
          if pass_stats then
            print_endline (Cli_common.pass_stats_json ?tune:tune_stats pm)
      | None -> ());
      Ok ()
    end
  with
  | Support.Diag.Error (loc, msg) -> Error (Support.Diag.to_string loc msg)
  | Sys_error e -> Error e

let cmd =
  let term =
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None
             & info [] ~docv:"FILE.c" ~doc:"Mini-C kernel; '-' for stdin.")
      $ Cli_common.config_name_arg
      $ Cli_common.transform_script_arg
      $ Arg.(value & flag
             & info [ "tune" ]
                 ~doc:"Autotune: search the schedule space (Pluto \
                       tilings/fusions/interchange + BLIS blockings) on \
                       the machine model and print the winning transform \
                       script.")
      $ Arg.(value & flag
             & info [ "quick" ]
                 ~doc:"With --tune: search the trimmed smoke-test space.")
      $ Arg.(value
             & opt (enum machines) Machine.Machine_model.amd_2920x
             & info [ "machine" ] ~docv:"MACHINE"
                 ~doc:"intel-i9-9900k or amd-2920x.")
      $ Arg.(value & opt (some float) None
             & info [ "flops" ] ~docv:"N"
                 ~doc:"Mathematical flop count, to report GFLOPS.")
      $ Arg.(value & flag
             & info [ "execute" ]
                 ~doc:"Actually interpret the prepared kernel on random \
                       inputs (wall-clock), in addition to the simulation.")
      $ Cli_common.verify_exec ()
      $ Cli_common.timing
      $ Cli_common.pass_stats
      $ Cli_common.trace
      $ Cli_common.metrics
      $ Cli_common.remarks)
  in
  Cmd.v
    (Cmd.info "mlt-sim" ~version:"1.0"
       ~doc:"Simulate a kernel's performance under an evaluation pipeline")
    Term.(term_result' term)

let () = exit (Cmd.eval cmd)
