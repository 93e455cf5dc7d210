(* Tests for the structured trace layer (Ir.Trace): sink plumbing, the
   in-memory ring buffer, the Chrome exporter's JSON, and the events the
   instrumented layers (pass manager, rewrite drivers, patterns,
   interpreter) actually emit. *)

open Ir
module W = Workloads.Polybench

let contains = Astring_contains.contains

let raise_linalg () =
  Transform.Interp.passes_of_steps [ Transform.Script.Raise "linalg" ]

let events_where pred t =
  List.filter pred (Trace.Memory.events t)

let arg_str ev key =
  match List.assoc_opt key ev.Trace.ev_args with
  | Some (Trace.A_str s) -> Some s
  | _ -> None

let arg_bool ev key =
  match List.assoc_opt key ev.Trace.ev_args with
  | Some (Trace.A_bool b) -> Some b
  | _ -> None

(* A raising pipeline run under a memory sink delivers the full event
   taxonomy: pass spans, driver runs, per-pattern attempts and hits. *)
let test_memory_captures_pipeline () =
  Alcotest.(check bool) "tracing disabled by default" false (Trace.enabled ());
  let t = Trace.Memory.create () in
  Alcotest.(check bool) "sink install enables tracing" true (Trace.enabled ());
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let pm = Pass.create_manager () in
  Pass.add_all pm (raise_linalg ());
  Pass.run pm m;
  Trace.Memory.detach t;
  Alcotest.(check bool) "detach disables tracing" false (Trace.enabled ());
  let pass_begin =
    events_where
      (fun e ->
        e.Trace.ev_cat = "pass" && e.Trace.ev_phase = Trace.Begin
        && e.Trace.ev_name = "transform.raise[linalg]")
      t
  in
  Alcotest.(check int) "one pass Begin" 1 (List.length pass_begin);
  let pass_end =
    events_where
      (fun e ->
        e.Trace.ev_cat = "pass" && e.Trace.ev_phase = Trace.End
        && e.Trace.ev_name = "transform.raise[linalg]")
      t
  in
  Alcotest.(check int) "one pass End" 1 (List.length pass_end);
  (match pass_end with
  | [ e ] ->
      Alcotest.(check bool) "End carries rewrite counters" true
        (List.mem_assoc "rewrites" e.Trace.ev_args)
  | _ -> ());
  let drivers =
    events_where
      (fun e -> e.Trace.ev_cat = "driver" && e.Trace.ev_name = "greedy-worklist")
      t
  in
  Alcotest.(check bool) "driver span recorded" true (List.length drivers >= 2);
  let hits =
    events_where
      (fun e ->
        e.Trace.ev_cat = "pattern" && e.Trace.ev_name = "GEMM"
        && arg_bool e "hit" = Some true)
      t
  in
  Alcotest.(check int) "one GEMM hit event" 1 (List.length hits);
  (match hits with
  | [ e ] ->
      Alcotest.(check (option string)) "hit names the matched op"
        (Some "affine.for") (arg_str e "op")
  | _ -> ());
  (* Events arrive in causal order: the pass Begin precedes its End. *)
  let ts_of es = (List.hd es).Trace.ev_ts in
  Alcotest.(check bool) "Begin before End" true
    (ts_of pass_begin <= ts_of pass_end)

let test_memory_ring_capacity () =
  let t = Trace.Memory.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.instant ~args:[ ("i", Trace.A_int i) ] ~cat:"test" "tick"
  done;
  Trace.Memory.detach t;
  Alcotest.(check int) "keeps the last [capacity]" 4
    (List.length (Trace.Memory.events t));
  Alcotest.(check int) "counts the overflow" 6 (Trace.Memory.dropped t);
  (* The survivors are the newest events. *)
  let is =
    List.filter_map
      (fun e ->
        match List.assoc_opt "i" e.Trace.ev_args with
        | Some (Trace.A_int i) -> Some i
        | _ -> None)
      (Trace.Memory.events t)
  in
  Alcotest.(check (list int)) "oldest first, newest kept" [ 7; 8; 9; 10 ] is;
  Trace.Memory.clear t;
  Alcotest.(check int) "clear empties the buffer" 0
    (List.length (Trace.Memory.events t))

(* The ring buffer must keep wrapping correctly while the metrics layer
   is live on the same hot path: every Metrics.observe between trace
   events must neither perturb the ring's bookkeeping nor lose its own
   observations when the ring overflows. *)
let test_ring_wraparound_under_metric_load () =
  let capacity = 8 and total = 1000 in
  let t = Trace.Memory.create ~capacity () in
  let h = Metrics.histogram "tt_ring_hist" in
  let c = Metrics.counter "tt_ring_counter" in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
      for i = 1 to total do
        Metrics.incr c;
        Metrics.observe h 1e-6;
        Trace.instant ~args:[ ("i", Trace.A_int i) ] ~cat:"test" "tick"
      done);
  Trace.Memory.detach t;
  Alcotest.(check int) "ring keeps the last [capacity]" capacity
    (List.length (Trace.Memory.events t));
  Alcotest.(check int) "ring counts every overflow" (total - capacity)
    (Trace.Memory.dropped t);
  let is =
    List.filter_map
      (fun e ->
        match List.assoc_opt "i" e.Trace.ev_args with
        | Some (Trace.A_int i) -> Some i
        | _ -> None)
      (Trace.Memory.events t)
  in
  Alcotest.(check (list int)) "survivors are the newest, oldest first"
    (List.init capacity (fun k -> total - capacity + 1 + k))
    is;
  (* The metrics side lost nothing to the ring overflow. *)
  let sample name =
    List.find (fun s -> s.Metrics.s_metric = name) (Metrics.snapshot ())
  in
  (match (sample "tt_ring_counter").Metrics.s_value with
  | Metrics.V_counter n -> Alcotest.(check int) "counter kept all" total n
  | _ -> Alcotest.fail "counter lost its kind");
  match (sample "tt_ring_hist").Metrics.s_value with
  | Metrics.V_histogram hs ->
      Alcotest.(check int) "histogram kept all" total hs.Metrics.h_count
  | _ -> Alcotest.fail "histogram lost its kind"

let test_span_exception_safety () =
  let t = Trace.Memory.create () in
  (try
     Trace.span ~cat:"test" "boom" (fun () -> failwith "kaboom")
   with Failure _ -> ());
  Trace.Memory.detach t;
  let phases =
    List.map
      (fun e -> e.Trace.ev_phase)
      (events_where (fun e -> e.Trace.ev_name = "boom") t)
  in
  Alcotest.(check bool) "End emitted despite the raise" true
    (phases = [ Trace.Begin; Trace.End ])

let test_sinks_stack () =
  (* Two sinks both see every event; uninstalling one leaves the other. *)
  let t1 = Trace.Memory.create () in
  let t2 = Trace.Memory.create () in
  Trace.instant ~cat:"test" "both";
  Trace.Memory.detach t1;
  Trace.instant ~cat:"test" "only-t2";
  Trace.Memory.detach t2;
  Alcotest.(check int) "t1 saw one" 1 (List.length (Trace.Memory.events t1));
  Alcotest.(check int) "t2 saw both" 2 (List.length (Trace.Memory.events t2))

(* The Chrome exporter must produce strictly valid JSON with the
   trace-event fields Perfetto requires. Validated with the in-tree JSON
   reader, not string matching. *)
let test_chrome_json_valid () =
  let c = Trace.Chrome.create () in
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let pm = Pass.create_manager () in
  Pass.add_all pm (raise_linalg ());
  Pass.run pm m;
  Trace.Chrome.detach c;
  Alcotest.(check bool) "captured events" true (Trace.Chrome.count c > 0);
  match Support.Json.parse (Trace.Chrome.contents c) with
  | Error msg -> Alcotest.failf "exporter produced invalid JSON: %s" msg
  | Ok json -> (
      match Support.Json.member "traceEvents" json with
      | Some (Support.Json.List evs) ->
          Alcotest.(check int) "traceEvents matches count"
            (Trace.Chrome.count c) (List.length evs);
          List.iter
            (fun ev ->
              let str k =
                match Support.Json.member k ev with
                | Some (Support.Json.Str s) -> s
                | _ -> Alcotest.failf "event lacks string field %S" k
              in
              let num k =
                match Support.Json.member k ev with
                | Some (Support.Json.Num n) -> n
                | _ -> Alcotest.failf "event lacks numeric field %S" k
              in
              Alcotest.(check bool) "nonempty name" true (str "name" <> "");
              Alcotest.(check bool) "known phase" true
                (List.mem (str "ph") [ "B"; "E"; "i" ]);
              Alcotest.(check bool) "relative ts is nonnegative" true
                (num "ts" >= 0.);
              ignore (num "pid");
              ignore (num "tid");
              Alcotest.(check bool) "known category" true
                (List.mem (str "cat")
                   [
                     "pass"; "transform"; "driver"; "pattern"; "interp";
                     "remark";
                   ]))
            evs
      | _ -> Alcotest.fail "no traceEvents array")

let test_chrome_escaping () =
  let c = Trace.Chrome.create () in
  Trace.instant
    ~args:[ ("msg", Trace.A_str "quote \" backslash \\ newline \n tab \t") ]
    ~cat:"test" "esc \"name\"";
  Trace.Chrome.detach c;
  match Support.Json.parse (Trace.Chrome.contents c) with
  | Error msg -> Alcotest.failf "escaping broke the JSON: %s" msg
  | Ok _ -> ()

let test_interp_spans () =
  let t = Trace.Memory.create () in
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  ignore (Interp.Eval.run_on_random m "mm" ~seed:3);
  Trace.Memory.detach t;
  let interp name =
    events_where
      (fun e -> e.Trace.ev_cat = "interp" && e.Trace.ev_name = name)
      t
  in
  Alcotest.(check bool) "exec span" true (List.length (interp "exec") >= 2);
  Alcotest.(check bool) "compile span" true
    (List.length (interp "compile") >= 2);
  match interp "exec" with
  | e :: _ ->
      Alcotest.(check (option string)) "exec names the function" (Some "mm")
        (arg_str e "func")
  | [] -> ()

let test_remarks_mirrored_into_trace () =
  let t = Trace.Memory.create () in
  Remark.remark ~loc:(Support.Loc.make ~file:"x.c" ~line:3 ~col:1)
    ~pattern:"GEMM" ~stage:"op-chain" Remark.Missed "not a contraction";
  Trace.Memory.detach t;
  match events_where (fun e -> e.Trace.ev_cat = "remark") t with
  | [ e ] ->
      Alcotest.(check bool) "instant" true (e.Trace.ev_phase = Trace.Instant);
      Alcotest.(check (option string)) "pattern arg" (Some "GEMM")
        (arg_str e "pattern");
      Alcotest.(check (option string)) "stage arg" (Some "op-chain")
        (arg_str e "stage");
      Alcotest.(check bool) "loc arg" true
        (match arg_str e "loc" with
        | Some l -> contains l "x.c:3:1"
        | None -> false)
  | es -> Alcotest.failf "expected one remark event, got %d" (List.length es)

(* Tracing call sites stay in the rewrite hot path; with no sink
   installed each must cost no more than a ref read. The budget is
   generous (host noise): a regression to eager argument construction
   would blow past it by orders of magnitude. *)
let test_disabled_emit_budget () =
  if Trace.enabled () then
    print_endline "disabled-trace budget skipped (a trace sink is installed)"
  else begin
    let calls = 2_000_000 in
    let t0 = Unix.gettimeofday () in
    for i = 1 to calls do
      Trace.instant ~args:[ ("i", Trace.A_int i) ] ~cat:"test" "noop"
    done;
    let per_call_ns =
      (Unix.gettimeofday () -. t0) /. float_of_int calls *. 1e9
    in
    if per_call_ns > 50. then
      Alcotest.failf "disabled tracing costs %.1f ns/call (> 50 ns budget)"
        per_call_ns
  end

let suite =
  [
    Alcotest.test_case "memory sink captures the pipeline taxonomy" `Quick
      test_memory_captures_pipeline;
    Alcotest.test_case "ring buffer capacity and overflow" `Quick
      test_memory_ring_capacity;
    Alcotest.test_case "ring wraparound under metric-event load" `Quick
      test_ring_wraparound_under_metric_load;
    Alcotest.test_case "span closes on exceptions" `Quick
      test_span_exception_safety;
    Alcotest.test_case "sinks stack and detach independently" `Quick
      test_sinks_stack;
    Alcotest.test_case "chrome exporter emits valid trace JSON" `Quick
      test_chrome_json_valid;
    Alcotest.test_case "chrome exporter escapes strings" `Quick
      test_chrome_escaping;
    Alcotest.test_case "interpreter compile/exec spans" `Quick
      test_interp_spans;
    Alcotest.test_case "remarks mirror into the trace" `Quick
      test_remarks_mirrored_into_trace;
    Alcotest.test_case "disabled emit stays under 50 ns/call" `Quick
      test_disabled_emit_budget;
  ]
