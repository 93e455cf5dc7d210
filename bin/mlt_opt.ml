(* mlt-opt: the mlir-opt-style driver for Multi-Level Tactics.

   Reads mini-C (with --c or a .c extension) or textual IR, applies the
   requested passes in the canonical pipeline order, and prints the
   resulting IR. Every pass flag is one transform-script step
   (docs/TRANSFORM.md has the flag -> step table), appended to the
   --config / --transform-script steps. Examples:

     mlt-opt gemm.c --raise-affine-to-linalg
     mlt-opt gemm.c --raise-affine-to-affine
     mlt-opt chain.c --raise-affine-to-linalg --reorder-chains \
             --convert-linalg-to-blas
     mlt-opt kernel.mlir --tile 32 --lower-affine
     mlt-opt gemm.c --config mlt-blas
     mlt-opt gemm.c --transform-script schedule.mlir
     mlt-opt gemm.c --tactics my_tactics.tdl --dump-tds *)

open Cmdliner
module S = Transform.Script

let read_file = Cli_common.read_file

let list_ops () =
  (* Every linked dialect registered itself at start-up. *)
  List.iter
    (fun name ->
      match Ir.Dialect.lookup name with
      | Some d -> Printf.printf "%-24s %s\n" name d.Ir.Dialect.od_summary
      | None -> ())
    (Ir.Dialect.registered_ops ())

(* The pass flags as transform-script steps, in the fixed canonical
   order. A fusion heuristic goes through the transform.fuse verifier,
   so an unknown name fails with its error. *)
let flag_steps ~delinearize ~raise_scf ~canonicalize ~fast_math ~raise_affine
    ~raise_linalg ~reorder_chains ~to_blas ~lower_linalg ~lower_linalg_tiled
    ~fuse ~tile ~lower_affine ~dce =
  let opt cond step = if cond then [ step ] else [] in
  let fuse_step h =
    S.step_of_op
      (Ir.Core.create_op ~attrs:[ ("heuristic", Ir.Attr.Str h) ] "transform.fuse")
  in
  List.concat
    [
      opt raise_scf (S.Raise "affine");
      opt delinearize S.Delinearize;
      opt canonicalize (S.Canonicalize fast_math);
      opt raise_affine (S.Raise "affine-matmul");
      opt raise_linalg (S.Raise "linalg");
      opt reorder_chains S.Reorder_chains;
      opt to_blas S.To_blas;
      (match lower_linalg_tiled with
      | Some size -> [ S.Lower_linalg (Some size) ]
      | None -> opt lower_linalg (S.Lower_linalg None));
      Option.to_list (Option.map fuse_step fuse);
      Option.to_list (Option.map (fun size -> S.Tile [ size ]) tile);
      opt lower_affine S.Lower_affine;
      opt dce S.Dce;
    ]

let run input list_ops_flag force_c config script tactics_file dump_tds
    delinearize
    raise_scf canonicalize fast_math raise_affine raise_linalg reorder_chains
    to_blas
    lower_linalg lower_linalg_tiled fuse tile lower_affine dce verify_each
    verify_exec timing pass_stats trace metrics print_debug_locs remarks
    print_ir_after_all print_ir_after output =
  if list_ops_flag then (
    list_ops ();
    Ok ())
  else
  try
    Cli_common.with_observability ?metrics ~trace ~remarks @@ fun () ->
    let src = read_file input in
    let is_c =
      force_c || Filename.check_suffix input ".c" || input = "-"
    in
    let m =
      if is_c then Met.Emit_affine.translate ~file:input src
      else Ir.Parser.parse_module ~file:input src
    in
    (* Snapshot before any pass runs so --verify-exec can difference the
       final IR against the input's execution semantics. *)
    let pristine = if verify_exec then Some (Ir.Core.clone_op m) else None in
    let tactic_patterns =
      match tactics_file with
      | None -> None
      | Some path ->
          let tds = Tdl.Frontend.lower_source ~file:path (read_file path) in
          if dump_tds then
            List.iter (fun t -> print_string (Tdl.Tds.to_string t)) tds;
          Some
            (Transforms.Tactics.fill_pattern ()
            :: List.map Tdl.Backend.compile tds)
    in
    let snapshot =
      if print_ir_after_all then Ir.Pass.After_all
      else if print_ir_after <> [] then Ir.Pass.After_named print_ir_after
      else Ir.Pass.No_snapshots
    in
    let pm = Ir.Pass.create_manager ~verify_each ~snapshot () in
    (* A named config or transform script runs first, in script order;
       the flag steps append to it. *)
    let schedule_steps =
      match Cli_common.schedule_of_flags ~config ~script with
      | Some schedule -> Mlt.Pipeline.schedule_steps schedule
      | None -> []
    in
    let flag_steps =
      flag_steps ~delinearize ~raise_scf ~canonicalize ~fast_math ~raise_affine
        ~raise_linalg ~reorder_chains ~to_blas ~lower_linalg
        ~lower_linalg_tiled ~fuse ~tile ~lower_affine ~dce
    in
    (* Pass names are step names: a --print-ir-after name that names no
       step of this pipeline would silently print nothing. *)
    let pass_names = List.map S.step_name (schedule_steps @ flag_steps) in
    List.iter
      (fun name ->
        if not (List.mem name pass_names) then
          Support.Diag.errorf "--print-ir-after: no pass named %S (passes: %s)"
            name
            (if pass_names = [] then "none" else String.concat ", " pass_names))
      print_ir_after;
    let passes_of_steps = Transform.Interp.passes_of_steps in
    (* --tactics replaces the tactic set of the flag's raise-linalg step
       (a config's own raising keeps the built-in set). *)
    let flag_pass step =
      match (step, tactic_patterns) with
      | S.Raise "linalg", Some patterns ->
          let frozen = Ir.Rewriter.freeze patterns in
          [
            Ir.Pass.make ~name:(S.step_name step) (fun root ->
                ignore (Ir.Rewriter.apply_greedily root frozen));
          ]
      | _ -> passes_of_steps [ step ]
    in
    Ir.Pass.add_all pm
      (passes_of_steps schedule_steps @ List.concat_map flag_pass flag_steps);
    Ir.Pass.run pm m;
    Ir.Verifier.verify m;
    (match pristine with
    | Some reference ->
        List.iter
          (fun f ->
            if Ir.Core.is_func f then begin
              let name = Ir.Core.func_name f in
              if not (Interp.Eval.equivalent reference m name ~seed:0) then
                Support.Diag.errorf
                  "verify-exec: pipeline changed the semantics of %S" name;
              Printf.eprintf "verify-exec: %s preserved\n%!" name
            end)
          (Ir.Core.ops_of_block (Ir.Core.module_block reference))
    | None -> ());
    let text =
      Ir.Printer.op_to_string ~debug_locs:print_debug_locs m ^ "\n"
    in
    (match output with
    | None -> print_string text
    | Some path -> Support.Atomic_io.write_file ~path text);
    if timing then print_string (Ir.Pass.report_table pm);
    if pass_stats then print_endline (Cli_common.pass_stats_json pm);
    Ok ()
  with
  | Support.Diag.Error (loc, msg) ->
      Error (Support.Diag.to_string loc msg)
  | Sys_error e -> Error e

let input =
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE"
         ~doc:"Input file: mini-C (.c) or textual IR (.mlir); '-' for stdin.")

let flag names doc = Arg.(value & flag & info names ~doc)

let cmd =
  let open Term in
  let term =
    const run
    $ input
    $ flag [ "list-ops" ]
        "Print every registered operation with its summary and exit."
    $ flag [ "c" ] "Force parsing the input as mini-C."
    $ Cli_common.config_name_arg
    $ Cli_common.transform_script_arg
    $ Arg.(value & opt (some string) None
           & info [ "tactics" ] ~docv:"FILE.tdl"
               ~doc:"Load user-defined TDL tactics for raising (replaces \
                     the built-in tactic set).")
    $ flag [ "dump-tds" ]
        "Print the TableGen-stage TDS generated from --tactics."
    $ flag [ "delinearize" ]
        "Optimistically delinearize rank-1 buffers (recovers Darknet-style \
         linearized GEMMs)."
    $ flag [ "raise-scf-to-affine" ]
        "Raise SCF loops and memref accesses back to the affine dialect."
    $ flag [ "canonicalize" ] "Run algebraic canonicalization."
    $ flag [ "fast-math" ]
        "Allow value-unsafe float folds in --canonicalize (x*0 -> 0, which \
         is wrong for NaN/inf/-0.0). Off by default."
    $ flag [ "raise-affine-to-affine" ]
        "Raise GEMM loop nests to affine.matmul (sec. 5.1)."
    $ flag [ "raise-affine-to-linalg" ]
        "Raise loop nests to Linalg operations (sec. 5.2)."
    $ flag [ "reorder-chains" ]
        "Re-parenthesize matrix-multiplication chains optimally (sec. 5.3)."
    $ flag [ "convert-linalg-to-blas" ]
        "Replace Linalg ops with vendor-library calls (MLT-Blas)."
    $ flag [ "lower-linalg" ] "Lower Linalg ops to affine loops."
    $ Arg.(value & opt (some int) None
           & info [ "lower-linalg-tiled" ] ~docv:"SIZE"
               ~doc:"Lower Linalg ops to cache-tiled loops (MLT-Linalg path).")
    $ Arg.(value & opt (some string) None
           & info [ "fuse" ] ~docv:"HEURISTIC"
               ~doc:"Fuse loops: nofuse, smartfuse or maxfuse.")
    $ Arg.(value & opt (some int) None
           & info [ "tile" ] ~docv:"SIZE" ~doc:"Tile affine loop nests.")
    $ flag [ "lower-affine" ] "Lower the affine dialect to SCF + memref."
    $ flag [ "dce" ] "Dead-code (and dead-buffer) elimination."
    $ flag [ "verify-each" ] "Verify the IR after every pass."
    $ Cli_common.verify_exec ()
    $ Cli_common.timing
    $ Cli_common.pass_stats
    $ Cli_common.trace
    $ Cli_common.metrics
    $ Cli_common.print_debug_locs
    $ Cli_common.remarks
    $ flag [ "print-ir-after-all" ] "Print the IR after every pass."
    $ Arg.(value & opt_all string []
           & info [ "print-ir-after" ] ~docv:"PASS"
               ~doc:"Print the IR after the named pass, a step name such as \
                     transform.raise[linalg] (repeatable).")
    $ Arg.(value & opt (some string) None
           & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write output here.")
  in
  Cmd.v
    (Cmd.info "mlt-opt" ~version:"1.0"
       ~doc:"Multi-Level Tactics optimizer driver")
    Term.(term_result' term)

let () = exit (Cmd.eval cmd)
