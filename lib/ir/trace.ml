type arg =
  | A_str of string
  | A_int of int
  | A_float of float
  | A_bool of bool

type phase = Begin | End | Instant

type event = {
  ev_ts : float;
  ev_cat : string;
  ev_name : string;
  ev_phase : phase;
  ev_args : (string * arg) list;
}

type sink = event -> unit

(* The hot path is "no sinks installed": [emit] reads the domain-local
   stack and returns, so tracing costs nothing when disabled. *)
let sinks : event Support.Sink_stack.t = Support.Sink_stack.create ()

type handle = Support.Sink_stack.handle

let install sink = Support.Sink_stack.install sinks sink
let uninstall h = Support.Sink_stack.uninstall sinks h
let with_sink sink f = Support.Sink_stack.with_sink sinks sink f
let enabled () = Support.Sink_stack.enabled sinks
let installed_count () = Support.Sink_stack.installed_count sinks

let now () = Unix.gettimeofday ()

let emit ?(args = []) ~cat ~phase name =
  if enabled () then
    ignore
      (Support.Sink_stack.dispatch sinks
         { ev_ts = now (); ev_cat = cat; ev_name = name; ev_phase = phase;
           ev_args = args })

let instant ?args ~cat name = emit ?args ~cat ~phase:Instant name
let begin_ ?args ~cat name = emit ?args ~cat ~phase:Begin name
let end_ ?args ~cat name = emit ?args ~cat ~phase:End name

(* [span] takes the end args lazily: they usually summarize what the body
   did (op counts, applications) and only exist once it has run. *)
let span ?args ?(end_args = fun () -> []) ~cat name f =
  if not (enabled ()) then f ()
  else begin
    begin_ ?args ~cat name;
    Fun.protect ~finally:(fun () -> end_ ~args:(end_args ()) ~cat name) f
  end

module Memory = struct
  type t = {
    capacity : int;
    buf : event Queue.t;
    mutable dropped : int;
    mutable handle : handle;
  }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Trace.Memory.create: capacity <= 0";
    let buf = Queue.create () in
    let t = { capacity; buf; dropped = 0; handle = 0 } in
    let sink ev =
      if Queue.length buf >= capacity then begin
        ignore (Queue.pop buf);
        t.dropped <- t.dropped + 1
      end;
      Queue.push ev buf
    in
    t.handle <- install sink;
    t

  let events t = List.of_seq (Queue.to_seq t.buf)
  let dropped t = t.dropped

  let clear t =
    Queue.clear t.buf;
    t.dropped <- 0

  let detach t = uninstall t.handle
end

(* ---- Chrome trace-event exporter ---------------------------------------- *)

(* Events stream into a buffer as they happen, so the exporter formats
   them by hand — but through the shared escaping, so its strings can
   never diverge from the Support.Json writer's. *)
let json_escape = Support.Json.escape_string

let arg_json = function
  | A_str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | A_int i -> string_of_int i
  | A_float f -> Printf.sprintf "%.17g" f
  | A_bool b -> if b then "true" else "false"

let phase_code = function Begin -> "B" | End -> "E" | Instant -> "i"

let event_json ~t0 ev =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":1"
       (json_escape ev.ev_name) (json_escape ev.ev_cat)
       (phase_code ev.ev_phase)
       ((ev.ev_ts -. t0) *. 1e6));
  if ev.ev_phase = Instant then Buffer.add_string buf ",\"s\":\"t\"";
  if ev.ev_args <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":%s" (json_escape k) (arg_json v)))
      ev.ev_args;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

module Chrome = struct
  type t = {
    buf : Buffer.t;
    t0 : float;
    mutable count : int;
    mutable handle : handle;
  }

  let create () =
    let buf = Buffer.create 4096 in
    let t0 = now () in
    let t = { buf; t0; count = 0; handle = 0 } in
    let sink ev =
      if t.count > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (event_json ~t0 ev);
      t.count <- t.count + 1
    in
    t.handle <- install sink;
    t

  let count t = t.count

  let contents t =
    Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n"
      (Buffer.contents t.buf)

  (* Atomic commit: an exception (or kill) mid-export leaves either no
     trace file or the previous complete one — never a torn JSON that a
     viewer chokes on — and never leaks the channel. *)
  let write t path = Support.Atomic_io.write_file ~path (contents t)

  let detach t = uninstall t.handle
end
