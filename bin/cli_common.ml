(* Flag definitions shared by mlt-opt, mlt-sim and mlt-batch, so the
   drivers spell their common surface identically (--config /
   --transform-script, --verify-exec, --timing, --pass-stats). *)

open Cmdliner

let read_file = function
  | "-" -> In_channel.input_all In_channel.stdin
  | path -> In_channel.with_open_text path In_channel.input_all

(* ---- schedule selection --------------------------------------------------

   One resolution path for all three binaries: a named pipeline
   configuration (--config, with --pipeline as mlt-batch's historical
   spelling) or a transform script as IR text (--transform-script),
   never both. *)

let config_name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "config"; "pipeline" ] ~docv:"NAME"
        ~doc:
          "Named pipeline configuration: clang-O3, pluto-default, \
           pluto-best, mlt-linalg, mlt-blas or mlt-affine-blis. \
           pluto-best searches the Pluto tiling/fusion sweep on the \
           machine model only in mlt-sim; mlt-opt and mlt-batch have no \
           machine model and elaborate it as pluto-default.")

let transform_script_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "transform-script" ] ~docv:"FILE"
        ~doc:
          "Transform script to run instead of a named configuration: a \
           builtin.module of transform-dialect ops, as printed by \
           mlt-opt or written by hand (grammar in docs/TRANSFORM.md); \
           '-' for stdin.")

(* [schedule_of_flags ~config ~script] — [None] when neither flag was
   given, so each driver picks its own default. Raises
   [Support.Diag.Error] on conflicts, unknown names and script errors;
   call it inside the driver's top-level handler. *)
let schedule_of_flags ~config ~script =
  match (config, script) with
  | None, None -> None
  | Some _, Some _ ->
      Support.Diag.errorf
        "give either --config or --transform-script, not both"
  | Some name, None -> (
      match Mlt.Pipeline.config_of_name name with
      | Some c -> Some (Mlt.Pipeline.Config c)
      | None ->
          Support.Diag.errorf "unknown config %S (one of: %s)" name
            (String.concat ", "
               (List.map Mlt.Pipeline.config_name Mlt.Pipeline.all_configs)))
  | None, Some path ->
      Some
        (Mlt.Pipeline.schedule_of_script_text
           ~name:("script:" ^ Filename.basename path)
           ~file:path (read_file path))

(* The per-pass JSON report, stamped with the shared run_meta block
   (trace_stats --diff refuses to compare across schema versions) and
   with the tuner's search summary appended as a "tune" member when a
   search ran (docs/OBSERVABILITY.md). *)
let pass_stats_json ?tune pm =
  let module J = Support.Json in
  let tune_fields =
    match tune with
    | None -> []
    | Some (st : Tune.stats) ->
        [
          ( "tune",
            J.Obj
              [
                ("candidates", J.num_int st.Tune.t_candidates);
                ("evaluated", J.num_int st.Tune.t_evaluated);
                ("simulated", J.num_int st.Tune.t_simulated);
                ("best_seconds", J.Num st.Tune.t_best_seconds);
                ( "eval_seconds",
                  Ir.Metrics.histogram_snapshot_json st.Tune.t_eval_latency );
              ] );
        ]
  in
  match Ir.Pass.report_json_value pm with
  | J.Obj fields ->
      J.to_string
        (J.Obj
           ((("run_meta", Support.Run_meta.json ()) :: fields) @ tune_fields))
  | _ -> assert false (* the report is always an object *)

(* The canonical differential-execution flag. The long-deprecated
   [--verify] alias is gone: --verify-exec is the one spelling. *)
let verify_exec () =
  Arg.(
    value & flag
    & info [ "verify-exec" ]
        ~doc:
          "Differential execution check: interpret every function before \
           and after the pipeline on identical random inputs and fail if \
           any output buffer differs.")

let timing =
  Arg.(
    value & flag
    & info [ "timing" ]
        ~doc:
          "Print a per-pass table: seconds, op counts before/after, and \
           pattern match/rewrite counters (with per-pattern sub-rows).")

let pass_stats =
  Arg.(
    value & flag
    & info [ "pass-stats" ]
        ~doc:
          "Print the per-pass statistics as one JSON object, including \
           per-pattern attempt/hit counters (schema in \
           docs/OBSERVABILITY.md).")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file covering the whole run: \
           pass spans, rewrite-driver runs, per-pattern attempt/hit \
           events, interpreter compile/exec spans and remarks. Load it in \
           Perfetto or chrome://tracing (schema in docs/OBSERVABILITY.md).")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable the Ir.Metrics registry for this run and write the \
           merged snapshot to $(docv) on exit: pass timings and GC \
           deltas, cache hit/miss and latencies, interpreter \
           compile/exec timings, as JSON (schema in \
           docs/OBSERVABILITY.md).")

let print_debug_locs =
  Arg.(
    value & flag
    & info [ "print-debug-locs" ]
        ~doc:
          "Print a loc(...) trailer after every operation: the source \
           location, or the provenance chain (pattern name + consumed \
           source locations) for ops created by the raising patterns.")

let remarks =
  let kinds_conv =
    let parse s =
      match Ir.Remark.kinds_of_string s with
      | Some kinds -> Ok kinds
      | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "invalid remark filter %S (expected missed, applied, \
                   analysis or all)"
                  s))
    in
    let print fmt kinds =
      Format.pp_print_string fmt
        (String.concat ","
           (List.map Ir.Remark.kind_name kinds))
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some kinds_conv) None
    & info [ "remarks" ] ~docv:"KINDS"
        ~doc:
          "Print structured optimizer remarks to stderr: 'applied' \
           (successful rewrites), 'missed' (near-misses, with the matcher \
           stage that rejected them), 'analysis', or 'all'.")

(* Installs the sinks the observability flags ask for around [f]:
   [--metrics=FILE] enables the registry and exports the merged snapshot
   on exit, [--trace=FILE] a Chrome trace sink, [--remarks] a filtered
   stderr remark printer. All exports happen even when [f] raises, so a
   failing pipeline still leaves its artifacts. Metrics wrap outermost;
   the trace sink goes in before remarks so remarks are mirrored into the
   trace as instant events. *)
let with_observability ?metrics ~trace ~remarks f =
  let with_remarks f =
    match remarks with
    | None -> f ()
    | Some kinds -> Ir.Remark.with_sink (Ir.Remark.stderr_sink ~kinds ()) f
  in
  let with_trace f =
    match trace with
    | None -> with_remarks f
    | Some path ->
        let sink = Ir.Trace.Chrome.create () in
        Fun.protect
          ~finally:(fun () ->
            Ir.Trace.Chrome.detach sink;
            Ir.Trace.Chrome.write sink path)
          (fun () -> with_remarks f)
  in
  match metrics with
  | None -> with_trace f
  | Some path ->
      Ir.Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Ir.Metrics.write ~path (Ir.Metrics.snapshot ()))
        (fun () -> with_trace f)
