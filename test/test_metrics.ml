(* Tests for the domain-safe metrics registry (Ir.Metrics): the
   log-bucket boundary arithmetic, write-once descriptor registration,
   cross-domain merge determinism and the JSON round-trip. Metric names
   are unique per test — the registry is process-global and descriptors
   are never unregistered. *)

open Ir
module J = Support.Json

let contains = Astring_contains.contains

(* Run [f] with metrics enabled, restoring the disabled default (other
   suites assert on the disabled fast path). *)
let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let find_sample name =
  List.find_opt (fun s -> s.Metrics.s_metric = name) (Metrics.snapshot ())

let counter_value name =
  match find_sample name with
  | Some { Metrics.s_value = Metrics.V_counter n; _ } -> n
  | _ -> Alcotest.failf "no counter sample %S" name

let hist_value name =
  match find_sample name with
  | Some { Metrics.s_value = Metrics.V_histogram h; _ } -> h
  | _ -> Alcotest.failf "no histogram sample %S" name

(* ---- bucket boundaries -------------------------------------------- *)

let test_bucket_boundaries () =
  let b = Metrics.bucket_of_seconds in
  let ns v = v *. 1e-9 in
  (* Degenerate inputs all land in bucket 0. *)
  Alcotest.(check int) "zero" 0 (b 0.);
  Alcotest.(check int) "negative" 0 (b (-1.0));
  Alcotest.(check int) "nan" 0 (b Float.nan);
  Alcotest.(check int) "sub-ns" 0 (b (ns 0.5));
  (* Exact powers of two land in the bucket they lower-bound: bucket i
     holds [2^(i-1), 2^i) ns. *)
  Alcotest.(check int) "1ns opens bucket 1" 1 (b (ns 1.));
  Alcotest.(check int) "1.99ns stays in bucket 1" 1 (b (ns 1.99));
  Alcotest.(check int) "2ns opens bucket 2" 2 (b (ns 2.));
  Alcotest.(check int) "4ns opens bucket 3" 3 (b (ns 4.));
  Alcotest.(check int) "1us" 10 (b 1e-6);
  (* Overflow: bucket 63 holds everything at or above 2^62 ns. *)
  Alcotest.(check int) "2^62 ns overflows" 63 (b (ns (Float.ldexp 1. 62)));
  Alcotest.(check int) "2^80 ns overflows" 63 (b (ns (Float.ldexp 1. 80)));
  Alcotest.(check int) "infinity overflows" 63 (b Float.infinity);
  (* Upper bounds are consistent with bucket placement: every finite
     observation is strictly below its bucket's upper bound and at or
     above the previous bucket's. *)
  Alcotest.(check (float 0.)) "bucket 0 upper = 1ns" 1e-9
    (Metrics.bucket_upper_seconds 0);
  Alcotest.(check (float 0.)) "overflow upper = inf" Float.infinity
    (Metrics.bucket_upper_seconds (Metrics.bucket_count - 1));
  List.iter
    (fun v ->
      let i = b v in
      Alcotest.(check bool)
        (Printf.sprintf "%g below upper(%d)" v i)
        true
        (v < Metrics.bucket_upper_seconds i);
      if i > 0 && v > 0. then
        Alcotest.(check bool)
          (Printf.sprintf "%g at/above upper(%d)" v (i - 1))
          true
          (v >= Metrics.bucket_upper_seconds (i - 1)))
    [ ns 1.; ns 1.5; ns 2.; ns 1023.; ns 1024.; 1e-6; 0.5; 3.25; 1e6 ]

(* ---- registration semantics ---------------------------------------- *)

let test_registration_write_once () =
  with_metrics @@ fun () ->
  let c1 = Metrics.counter ~help:"first" "tm_reg_counter" in
  let c2 = Metrics.counter "tm_reg_counter" in
  Metrics.incr c1;
  Metrics.add c2 2;
  Alcotest.(check int) "both handles hit the same cell" 3
    (counter_value "tm_reg_counter");
  (* Re-registering under a different kind is a hard error, not a
     silent shadow. *)
  match Metrics.gauge "tm_reg_counter" with
  | _ -> Alcotest.fail "kind mismatch did not raise"
  | exception Support.Diag.Error (_, msg) ->
      Alcotest.(check bool) "error names the existing kind" true
        (contains msg "already registered as a counter")

let test_disabled_updates_are_dropped () =
  let c = Metrics.counter "tm_disabled_counter" in
  Alcotest.(check bool) "disabled by default" false (Metrics.enabled ());
  Metrics.incr c;
  Metrics.add c 41;
  with_metrics @@ fun () ->
  Alcotest.(check int) "updates while disabled dropped" 0
    (counter_value "tm_disabled_counter");
  (* [time] must still run the body (and return its value) either way. *)
  Metrics.set_enabled false;
  let h = Metrics.histogram "tm_disabled_hist" in
  Alcotest.(check int) "time returns body result while disabled" 7
    (Metrics.time h (fun () -> 7));
  Metrics.set_enabled true;
  Alcotest.(check int) "no observation recorded while disabled" 0
    (hist_value "tm_disabled_hist").Metrics.h_count

(* ---- cross-domain merge determinism -------------------------------- *)

let test_four_domain_merge_deterministic () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "tm_md_counter" in
  let g = Metrics.gauge "tm_md_gauge" in
  let h = Metrics.histogram "tm_md_hist" in
  let per_domain = 1000 in
  let work d () =
    for i = 1 to per_domain do
      Metrics.incr c;
      Metrics.set g (float_of_int d);
      (* Exactly representable sums: 2^-20 s each, all in one bucket. *)
      ignore i;
      Metrics.observe h (Float.ldexp 1. (-20))
    done
  in
  let snap () =
    let doms = List.init 4 (fun d -> Domain.spawn (work (d + 1))) in
    List.iter Domain.join doms;
    ( counter_value "tm_md_counter",
      (match find_sample "tm_md_gauge" with
      | Some { Metrics.s_value = Metrics.V_gauge v; _ } -> v
      | _ -> Alcotest.fail "no gauge"),
      hist_value "tm_md_hist" )
  in
  let c1, g1, h1 = snap () in
  Alcotest.(check int) "counter sums across domains" (4 * per_domain) c1;
  Alcotest.(check (float 0.)) "gauge merge takes the max" 4. g1;
  Alcotest.(check int) "histogram count sums" (4 * per_domain)
    h1.Metrics.h_count;
  Alcotest.(check (float 0.)) "histogram sum is exact"
    (float_of_int (4 * per_domain) *. Float.ldexp 1. (-20))
    h1.Metrics.h_sum;
  let bkt = Metrics.bucket_of_seconds (Float.ldexp 1. (-20)) in
  Alcotest.(check int) "all mass in one bucket" (4 * per_domain)
    h1.Metrics.h_buckets.(bkt);
  (* A second identical round doubles everything: joined shards keep
     contributing to the global snapshot, in a domain-count-independent
     way. *)
  let c2, _, h2 = snap () in
  Alcotest.(check int) "second round accumulates" (8 * per_domain) c2;
  Alcotest.(check int) "histogram accumulates" (8 * per_domain)
    h2.Metrics.h_count;
  (* Snapshots come back sorted by name — the order every exporter
     depends on. *)
  let names = List.map (fun s -> s.Metrics.s_metric) (Metrics.snapshot ()) in
  Alcotest.(check (list string)) "snapshot sorted by name"
    (List.sort compare names) names

(* Support.Pool spawns fresh domains on every run. Each exited domain's
   cells fold into one retired shard, so 100 runs leave the calling
   domain's shard and the retired one, and lose no update. *)
let test_exited_domains_retire () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "tm_retire_counter" in
  for _ = 1 to 100 do
    (* Each task waits for the other, so both workers run one: the
       spawned domain always records. *)
    let arrived = Atomic.make 0 in
    Support.Pool.run ~domains:2 2 (fun ~worker:_ _ ->
        Metrics.incr c;
        Atomic.incr arrived;
        while Atomic.get arrived < 2 do
          Domain.cpu_relax ()
        done)
  done;
  Alcotest.(check int) "exact total" 200 (counter_value "tm_retire_counter");
  let shards = Metrics.shard_count () in
  if shards > 2 then
    Alcotest.failf "%d shards for 1 live domain (at most 2)" shards

(* ---- JSON round-trip ------------------------------------------------ *)

let test_json_roundtrip () =
  with_metrics @@ fun () ->
  Metrics.reset ();
  let c = Metrics.counter ~help:"a counter" "tm_rt_counter" in
  let g = Metrics.gauge "tm_rt_gauge" in
  let h = Metrics.histogram ~help:"a histogram" "tm_rt_hist" in
  Metrics.add c 42;
  Metrics.set g 2.5;
  List.iter (Metrics.observe h) [ 1e-9; 1e-6; 1e-3; 0.5; Float.infinity ];
  let samples = Metrics.snapshot () in
  let j = Metrics.to_json_value ~run_meta:(Support.Run_meta.json ()) samples in
  (* The document is strict JSON and parses back to the same samples
     (h_sum with infinity is not representable, so observe drops the
     non-finite value from the sum but still counts it). *)
  (match J.parse (J.to_string j) with
  | Error msg -> Alcotest.failf "exported JSON does not re-parse: %s" msg
  | Ok _ -> ());
  (match Support.Run_meta.schema_version_of j with
  | Some v ->
      Alcotest.(check int) "run_meta schema stamped"
        Support.Run_meta.schema_version v
  | None -> Alcotest.fail "run_meta missing from metrics JSON");
  match Metrics.parse_json j with
  | Error msg -> Alcotest.failf "parse_json failed: %s" msg
  | Ok parsed ->
      Alcotest.(check int) "same sample count" (List.length samples)
        (List.length parsed);
      List.iter2
        (fun (a : Metrics.sample) (b : Metrics.sample) ->
          Alcotest.(check string) "name" a.Metrics.s_metric b.Metrics.s_metric;
          match (a.Metrics.s_value, b.Metrics.s_value) with
          | Metrics.V_counter x, Metrics.V_counter y ->
              Alcotest.(check int) "counter value" x y
          | Metrics.V_gauge x, Metrics.V_gauge y ->
              Alcotest.(check (float 0.)) "gauge value" x y
          | Metrics.V_histogram x, Metrics.V_histogram y ->
              Alcotest.(check int) "hist count" x.Metrics.h_count
                y.Metrics.h_count;
              Alcotest.(check (array int)) "hist buckets" x.Metrics.h_buckets
                y.Metrics.h_buckets
          | _ -> Alcotest.failf "kind mismatch for %S" a.Metrics.s_metric)
        samples parsed

(* The registry shares the rewrite hot path with tracing (the cache and
   interpreter call [observe] per operation) and the same budget:
   disabled, an update is one atomic read. *)
let test_disabled_observe_budget () =
  if Metrics.enabled () then
    print_endline "disabled-metrics budget skipped (metrics are enabled)"
  else begin
    let h = Metrics.histogram "tm_noop_seconds" in
    let calls = 2_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      Metrics.observe h 1e-6
    done;
    let per_call_ns =
      (Unix.gettimeofday () -. t0) /. float_of_int calls *. 1e9
    in
    if per_call_ns > 50. then
      Alcotest.failf "disabled metrics cost %.1f ns/call (> 50 ns budget)"
        per_call_ns
  end

let suite =
  [
    Alcotest.test_case "log-bucket boundary edge cases" `Quick
      test_bucket_boundaries;
    Alcotest.test_case "descriptor registration is write-once" `Quick
      test_registration_write_once;
    Alcotest.test_case "updates while disabled are dropped" `Quick
      test_disabled_updates_are_dropped;
    Alcotest.test_case "4-domain merge is deterministic" `Quick
      test_four_domain_merge_deterministic;
    Alcotest.test_case "exited domains fold into one retired shard" `Quick
      test_exited_domains_retire;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "disabled observe stays under 50 ns/call" `Quick
      test_disabled_observe_budget;
  ]
