type kind = Applied | Missed | Analysis | Warning

type t = {
  r_kind : kind;
  r_context : string option;
  r_pattern : string option;
  r_stage : string option;
  r_loc : Support.Loc.t;
  r_message : string;
}

let kind_name = function
  | Applied -> "applied"
  | Missed -> "missed"
  | Analysis -> "analysis"
  | Warning -> "warning"

let to_string r =
  let buf = Buffer.create 64 in
  if Support.Loc.is_known r.r_loc then begin
    Buffer.add_string buf (Support.Loc.to_string r.r_loc);
    Buffer.add_string buf ": "
  end;
  Buffer.add_string buf ("remark [" ^ kind_name r.r_kind ^ "]");
  (match r.r_pattern with
  | Some p -> Buffer.add_string buf (" " ^ p)
  | None -> ());
  (match r.r_stage with
  | Some s -> Buffer.add_string buf (" (stage: " ^ s ^ ")")
  | None -> ());
  Buffer.add_string buf ": ";
  Buffer.add_string buf r.r_message;
  (match r.r_context with
  | Some c -> Buffer.add_string buf (" [" ^ c ^ "]")
  | None -> ());
  Buffer.contents buf

type sink = t -> unit

let sinks : t Support.Sink_stack.t = Support.Sink_stack.create ()

type handle = Support.Sink_stack.handle

let install sink = Support.Sink_stack.install sinks sink
let uninstall h = Support.Sink_stack.uninstall sinks h
let with_sink sink f = Support.Sink_stack.with_sink sinks sink f
let enabled () = Support.Sink_stack.enabled sinks
let installed_count () = Support.Sink_stack.installed_count sinks

let trace_args r =
  let opt key = function
    | Some v -> [ (key, Trace.A_str v) ]
    | None -> []
  in
  (("kind", Trace.A_str (kind_name r.r_kind)) :: opt "pattern" r.r_pattern)
  @ opt "stage" r.r_stage @ opt "context" r.r_context
  @
  if Support.Loc.is_known r.r_loc then
    [ ("loc", Trace.A_str (Support.Loc.to_string r.r_loc)) ]
  else []

let emit r =
  (* Remarks are also visible in the trace timeline, so a Perfetto view
     of a raising run shows *why* a nest did not raise next to the
     pattern attempts that rejected it. *)
  if Trace.enabled () then
    Trace.instant ~cat:"remark" ~args:(trace_args r) r.r_message;
  (* Unwatched warnings must still reach the user. *)
  if (not (Support.Sink_stack.dispatch sinks r)) && r.r_kind = Warning then
    prerr_endline (to_string r)

let remark ?(loc = Support.Loc.unknown) ?context ?pattern ?stage kind fmt =
  Printf.ksprintf
    (fun msg ->
      emit
        {
          r_kind = kind;
          r_context = context;
          r_pattern = pattern;
          r_stage = stage;
          r_loc = loc;
          r_message = msg;
        })
    fmt

let warningf ?loc ?context fmt = remark ?loc ?context Warning fmt

let kinds_of_string = function
  | "missed" -> Some [ Missed ]
  | "applied" -> Some [ Applied ]
  | "analysis" -> Some [ Analysis ]
  | "all" -> Some [ Applied; Missed; Analysis; Warning ]
  | _ -> None

let stderr_sink ?kinds () r =
  let wanted = match kinds with None -> true | Some ks -> List.mem r.r_kind ks in
  if wanted then prerr_endline (to_string r)
