(* mlt-batch: the multi-domain batch compiler.

   Reads a JSON manifest of mini-C / IR inputs, fans it out over a pool
   of OCaml domains, compiles every entry through its configured
   pipeline, and writes per-entry IR plus an aggregated JSON report.
   A crashing input fails only its own manifest entry. Examples:

     mlt-batch manifest.json --domains 4 --output out/
     mlt-batch manifest.json --domains 1 --report report.json
     mlt-batch manifest.json --pipeline mlt-blas --remarks
     mlt-batch manifest.json --transform-script schedule.mlir
     mlt-batch manifest.json --cache-dir cache/            # warm the cache
     mlt-batch manifest.json --cache-dir cache/ --resume   # after a kill *)

open Cmdliner

let run manifest_path domains pipeline script capture_remarks output
    report cache_dir resume quiet metrics progress =
  try
    Cli_common.with_observability ?metrics ~trace:None ~remarks:None
    @@ fun () ->
    let manifest = Batch.Manifest.load manifest_path in
    let manifest =
      match Cli_common.schedule_of_flags ~config:pipeline ~script with
      | None -> manifest
      | Some schedule ->
          Batch.Manifest.of_entries
            (List.map
               (fun e -> { e with Batch.Manifest.e_schedule = schedule })
               (Batch.Manifest.entries manifest))
    in
    let domains =
      match domains with
      | Some n when n >= 1 -> n
      | Some n -> Support.Diag.errorf "--domains %d: need at least 1" n
      | None -> Domain.recommended_domain_count ()
    in
    let cache =
      match cache_dir with
      | Some dir -> Some (Batch.Cache.open_ ~dir)
      | None ->
          if resume then
            Support.Diag.errorf
              "--resume needs --cache-dir: completed entries are served \
               from the checkpointed cache"
          else None
    in
    (match cache with
    | Some c when not quiet ->
        let r = Batch.Cache.recovery c in
        let dropped =
          r.Batch.Cache.rec_swept_tmp + r.Batch.Cache.rec_unjournaled
          + r.Batch.Cache.rec_missing_blob
        in
        if dropped > 0 || r.Batch.Cache.rec_torn_journal then
          Printf.eprintf
            "mlt-batch: cache recovery dropped %d partial entr%s\n%!"
            dropped
            (if dropped = 1 then "y" else "ies")
    | _ -> ());
    let rp =
      Batch.Driver.run ~domains ~capture_remarks ~progress ?cache manifest
    in
    (match output with
    | Some dir -> Batch.Driver.write_outputs ~dir rp
    | None -> ());
    (match report with
    | Some path ->
        Support.Atomic_io.write_file ~path
          (Batch.Driver.report_json rp ^ "\n")
    | None -> if not quiet then print_endline (Batch.Driver.report_json rp));
    let failed = Batch.Driver.failed_count rp in
    if not quiet then
      Printf.eprintf
        "mlt-batch: %d/%d entries ok on %d domain%s in %.3fs%s%s\n%!"
        (Batch.Driver.ok_count rp)
        (List.length rp.Batch.Driver.rp_results)
        rp.Batch.Driver.rp_domains
        (if rp.Batch.Driver.rp_domains = 1 then "" else "s")
        rp.Batch.Driver.rp_wall_seconds
        (if not rp.Batch.Driver.rp_cache_enabled then ""
         else
           Printf.sprintf " (%d cached, %d compiled)"
             rp.Batch.Driver.rp_cache_hits rp.Batch.Driver.rp_cache_misses)
        (if failed = 0 then "" else Printf.sprintf " (%d FAILED)" failed);
    List.iter
      (fun (r : Batch.Driver.entry_result) ->
        match r.Batch.Driver.r_status with
        | Batch.Driver.Failed msg ->
            Printf.eprintf "mlt-batch: entry %S failed: %s\n%!"
              r.Batch.Driver.r_name msg
        | Batch.Driver.Done -> ())
      rp.Batch.Driver.rp_results;
    if failed > 0 then Error (`Msg "some manifest entries failed") else Ok ()
  with
  | Support.Diag.Error (loc, msg) ->
      Error (`Msg (Support.Diag.to_string loc msg))
  | Sys_error e -> Error (`Msg e)

let manifest_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"MANIFEST"
        ~doc:"JSON manifest of inputs (see docs/CONCURRENCY.md).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Size of the domain pool (default: the runtime's recommended \
           domain count). Each worker compiles the next unclaimed entry; \
           1 compiles every entry on the calling domain.")

(* The shared --config/--pipeline spelling plus --transform-script:
   either overrides every entry's schedule. *)

let remarks_arg =
  Arg.(
    value & flag
    & info [ "remarks" ]
        ~doc:
          "Capture structured optimizer remarks per entry into the \
           report (costs compile time: near-miss explanations are \
           computed).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"DIR"
        ~doc:
          "Write each entry's IR to DIR/III-NAME.mlir (III the manifest \
           index) and the report to DIR/report.json.")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write the JSON report here instead of printing it to stdout.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Content-addressed compilation cache (created if missing): \
           entries whose source + pipeline already compiled are served \
           from DIR without recompiling; misses compile and commit \
           crash-safely (docs/CACHE.md). Every commit is a checkpoint, \
           so a killed run re-invoked with the same DIR resumes where \
           it stopped.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume a killed run: requires $(b,--cache-dir); completed \
           entries are served from the checkpointed cache, only \
           unfinished work recompiles. (With $(b,--cache-dir) this is \
           the default behavior — the flag documents intent and fails \
           fast when no cache directory is given.)")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet" ] ~doc:"Suppress the stdout report and summary line.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Stderr heartbeat while the batch runs: done/failed/cached \
           counts, rate and ETA, redrawn in place on a tty. Pure \
           observability — results and signatures are unaffected.")

let cmd =
  let term =
    Term.(
      const run $ manifest_arg $ domains_arg
      $ Cli_common.config_name_arg $ Cli_common.transform_script_arg
      $ remarks_arg $ output_arg $ report_arg $ cache_dir_arg $ resume_arg
      $ quiet_arg $ Cli_common.metrics $ progress_arg)
  in
  Cmd.v
    (Cmd.info "mlt-batch" ~version:"1.0"
       ~doc:"Multi-domain batch compiler for Multi-Level Tactics")
    Term.(term_result term)

let () = exit (Cmd.eval cmd)
