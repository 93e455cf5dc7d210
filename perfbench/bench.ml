(* perfbench: the repository benchmark (README.md in this directory).

     bench.exe --workload compile --seed 1 --seconds 15 --trace 0

   Five closed-loop workloads — compile, batch, batch-warm, simulate,
   verify — each driven by one client that sends the next request when
   the previous one returns. Set-up generates every input from the seed
   and is timed apart from the requests. With --trace 0 the run measures
   the end-to-end metrics over whole rounds of the seeded request order,
   stopping at the round boundary nearest --seconds, in reference seconds
   (see "host speed" below); with --trace 1 it replays
   a fixed, seed-determined prefix of the request order twice (untraced,
   then traced) and reports the per-layer metrics, the tracing overhead
   and a Chrome trace of the layer spans. Every request's output is
   checked against an oracle; the last stdout line is one JSON object and
   any wrong output makes the exit code non-zero. *)

module W = Workloads.Polybench
module CS = Workloads.Contraction_spec
module P = Mlt.Pipeline
module MM = Machine.Machine_model
module J = Support.Json

let now = Unix.gettimeofday
let spf = Printf.sprintf

(* ---- small helpers --------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Percentile [q] in (0, 1] of an ascending array, smoothed: the mean of
   the order statistics within sqrt(n) ranks of the nearest rank. Request
   costs cluster by kernel, and a plain order statistic next to a gap
   between clusters jumps across it from run to run. *)
let percentile sorted q =
  let n = Array.length sorted in
  let r = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) in
  let w = int_of_float (Float.sqrt (float_of_int n)) in
  let lo = max 0 (r - w) and hi = min (n - 1) (r + w) in
  let s = ref 0. in
  for i = lo to hi do s := !s +. sorted.(i) done;
  !s /. float_of_int (hi - lo + 1)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let sole_func m =
  match List.filter Ir.Core.is_func (Ir.Core.ops_of_block (Ir.Core.module_block m)) with
  | [ f ] -> f
  | _ -> failwith "expected a module with one function"

let count_ops m =
  let n = ref 0 in
  Ir.Core.walk m (fun _ -> incr n);
  !n

(* ---- layer spans and counts --------------------------------------------------

   Only the traced run sets [tracing]. Every layer call then goes through
   [layer], which times it and emits an Ir.Trace span from this file; the
   untimed runs call the same functions with nothing around them. *)

let tracing = ref false
let layer_seconds : (string, float ref) Hashtbl.t = Hashtbl.create 32
let counts : (string, float ref) Hashtbl.t = Hashtbl.create 32

let bump tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add tbl name (ref v)

let total tbl name = match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0.
let count name v = if !tracing then bump counts name v

let layer name f =
  if not !tracing then f ()
  else
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> bump layer_seconds name (now () -. t0))
      (fun () -> Ir.Trace.span ~cat:"perfbench" name f)

(* Per-span events of this file only: the library's own spans and pattern
   instants (emitted whenever a sink is installed) are dropped, which
   keeps the trace small enough to write and analyse. *)
let events : Ir.Trace.event list ref = ref []

let chrome_trace ~t0 =
  let ev (e : Ir.Trace.event) =
    J.Obj
      [
        ("name", J.Str e.ev_name);
        ("cat", J.Str e.ev_cat);
        ( "ph",
          J.Str (match e.ev_phase with Begin -> "B" | End -> "E" | Instant -> "i") );
        ("ts", J.Num (Float.round ((e.ev_ts -. t0) *. 1e9) /. 1e3));
        ("pid", J.num_int 1);
        ("tid", J.num_int 1);
      ]
  in
  J.to_string
    (J.Obj
       [
         ("traceEvents", J.List (List.rev_map ev !events));
         ("displayTimeUnit", J.Str "ms");
       ])

(* ---- inputs ---------------------------------------------------------------- *)

let kernels () = List.map (fun (name, src, _) -> (name, src)) (W.figure9_suite ())

(* The five Figure-9 schedules the compile, simulate and verify workloads
   draw from; pluto-best joins them on simulate for the level-2 kernels. *)
let figure9_configs =
  [ P.Clang_O3; P.Pluto_default; P.Mlt_linalg; P.Mlt_blas; P.Mlt_affine_blis ]

let level2 = [ "atax"; "bicg"; "gemver"; "gesummv"; "mvt" ]

let step_metric_name step_name =
  let s =
    if String.starts_with ~prefix:"transform." step_name then
      String.sub step_name 10 (String.length step_name - 10)
    else step_name
  in
  String.concat ""
    (List.map
       (function
         | '[' -> "-"
         | ']' -> ""
         | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.') as c -> String.make 1 c
         | _ -> "_")
       (List.of_seq (String.to_seq s)))

(* Every transform step any schedule of the benchmark runs, in first-use
   order: the [transform.apply_s.<step>] metric family. *)
let step_metrics =
  lazy
    (List.fold_left
       (fun acc c ->
         List.fold_left
           (fun acc st ->
             let n = step_metric_name (Transform.Script.step_name st) in
             if List.mem n acc then acc else acc @ [ n ])
           acc (P.steps_of_config c))
       [] figure9_configs)

(* MET translation, layer by layer: exactly what Met.Emit_affine.translate
   does, with each public call wrapped in its own span when tracing. *)
let translate src =
  if not !tracing then Met.Emit_affine.translate src
  else begin
    let ks = layer "met.parse" (fun () -> Met.C_parser.parse_program src) in
    let ks = layer "met.distribute" (fun () -> List.map Met.Distribute.kernel ks) in
    let m = layer "met.emit" (fun () -> Met.Emit_affine.program ~distribute:false ks) in
    count "met.ops_out" (float_of_int (count_ops m));
    layer "verifier" (fun () -> Ir.Verifier.verify m);
    m
  end

let parse_ir text =
  count "ir_parser.bytes" (float_of_int (String.length text));
  layer "ir_parser" (fun () -> Ir.Parser.parse_module text)

(* Pipeline.prepare_schedule_module, layer by layer: compile the script,
   apply each step to the function, verify. *)
let prepare schedule m =
  if not !tracing then P.prepare_schedule_module schedule m
  else begin
    let f = sole_func m in
    let steps =
      layer "transform.compile" (fun () ->
          Transform.Interp.compile_steps (P.schedule_steps schedule))
    in
    let attempts0, rewrites0 = Ir.Rewriter.counter_totals () in
    List.iter
      (fun (c : Transform.Interp.compiled) ->
        let w0 = Gc.minor_words () in
        layer
          ("transform.apply." ^ step_metric_name c.c_name)
          (fun () -> ignore (Transform.Interp.apply_step c f));
        count "transform.minor_words" (Gc.minor_words () -. w0))
      steps;
    let attempts1, rewrites1 = Ir.Rewriter.counter_totals () in
    count "rewriter.attempts" (float_of_int (attempts1 - attempts0));
    count "rewriter.rewrites" (float_of_int (rewrites1 - rewrites0));
    layer "verifier" (fun () -> Ir.Verifier.verify m);
    m
  end

let print m =
  let s = layer "printer" (fun () -> Ir.Printer.op_to_string m) in
  count "printer.bytes" (float_of_int (String.length s));
  s

(* ---- request orders ----------------------------------------------------------

   A run is made of whole rounds, so every run of a workload sends the same
   mix of requests whatever the seed; the seed decides the order, the
   draws and the generated inputs. *)

(* Every round is a fresh seeded permutation of all items. *)
let shuffled_rounds rng items =
  let a = Array.of_list items in
  fun () ->
    shuffle rng a;
    Array.to_list a

(* For a population too costly to cover in one run: [strata] are groups of
   interchangeable items of similar cost. A round takes one item from every
   stratum and visits the strata heaviest, lightest, second heaviest, ...
   In round r the k-th heaviest stratum gives its item (k + r + phase) mod
   its size, with [phase] seeded: strata next to each other by cost give
   different items, so every round carries the same cost mix whatever the
   seed, and any prefix of it nearly so. *)
let stratified_rounds rng ~cost strata =
  let sorted = List.stable_sort (fun a b -> compare (cost b) (cost a)) strata in
  let strata = Array.of_list (List.map Array.of_list sorted) in
  let n = Array.length strata in
  let visit = List.init n (fun i -> if i mod 2 = 0 then i / 2 else n - 1 - (i / 2)) in
  let phase = Random.State.int rng 2 and round = ref (-1) in
  let deal k = strata.(k).((k + !round + phase) mod Array.length strata.(k)) in
  fun () ->
    incr round;
    List.map deal visit

(* ---- workloads --------------------------------------------------------------- *)

(* A request runs the program and returns its checker; checkers run
   outside the request's timing. *)
type request = unit -> unit -> bool

type instance = {
  i_round : unit -> request list;  (** the next round of the seeded order *)
  i_perturb : unit -> unit;
      (** corrupt one expectation the first round is checked against
          (self-test) *)
}

type workload = {
  w_name : string;
  w_tail : float;  (** the latency_tail_ms percentile *)
  w_domains : int;  (** domains a request keeps busy, for the reference time *)
  w_setups : int;  (** set-ups per run; setup_s is their median *)
  w_trace_rate : float;  (** requests per second the traced prefix is sized by *)
  w_rss_requests : int;  (** requests after which peak_rss_mb is read *)
  w_setup : seed:int -> dir:string -> instance;
}

let fail_msg = ref []

let note fmt =
  Printf.ksprintf
    (fun s -> if List.length !fail_msg < 5 then fail_msg := s :: !fail_msg)
    fmt

(* [on_first_round flag f round] applies [f] to the first round made after
   [flag] was set (the self-test's perturbation point). *)
let on_first_round flag f round () =
  let r = round () in
  if !flag then begin
    flag := false;
    f r
  end;
  r

(* -- compile: MET or IR parser -> transform -> verifier -> printer ---------- *)

type form = C_source | Mlir_text

let compile_setup ~seed ~dir =
  P.register_dialects ();
  let rng = Random.State.make [| seed; 1 |] in
  (* Inputs: each kernel as mini-C and as printed affine IR, written out
     and read back so requests see only generated files. *)
  let inputs =
    Array.of_list
      (List.map
         (fun (name, src) ->
           let c_path = Filename.concat dir (name ^ ".c") in
           let ir_path = Filename.concat dir (name ^ ".mlir") in
           write_file c_path src;
           write_file ir_path
             (Ir.Printer.op_to_string (Met.Emit_affine.translate src) ^ "\n");
           (name, read_file c_path, read_file ir_path))
         (kernels ()))
  in
  let pairs =
    List.concat_map
      (fun k -> List.map (fun c -> (k, c)) figure9_configs)
      (List.init (Array.length inputs) Fun.id)
  in
  let run (k, config) form =
    let _, src, text = inputs.(k) in
    let m = match form with C_source -> translate src | Mlir_text -> parse_ir text in
    (print (prepare (P.Config config) m), m)
  in
  (* Oracle: the first print of every (pair, form); every request must
     reproduce it byte for byte. *)
  let oracle = Hashtbl.create 160 in
  List.iter
    (fun p ->
      List.iter
        (fun form ->
          let out, m = run p form in
          Ir.Core.erase_op m;
          Hashtbl.replace oracle (p, form) out)
        [ C_source; Mlir_text ])
    pairs;
  let order = shuffled_rounds rng pairs in
  let perturb = ref false in
  let request (p, form) () =
    let out, m = run p form in
    fun () ->
      (* The IR registry keeps every module that is never erased; the
         client erases each one so a long run does not drift. *)
      Ir.Core.erase_op m;
      let ok = String.equal out (Hashtbl.find oracle (p, form)) in
      let name, _, _ = inputs.(fst p) in
      if not ok then note "compile: %s/%s printed different IR" name (P.config_name (snd p));
      ok
  in
  let round () =
    List.map (fun p -> (p, if Random.State.int rng 4 = 0 then Mlir_text else C_source)) (order ())
  in
  let corrupt = function
    | (p, _) :: _ ->
        List.iter
          (fun form -> Hashtbl.replace oracle (p, form) (Hashtbl.find oracle (p, form) ^ " "))
          [ C_source; Mlir_text ]
    | [] -> ()
  in
  {
    i_round = (fun () -> List.map request (on_first_round perturb corrupt round ()));
    i_perturb = (fun () -> perturb := true);
  }

(* -- batch: manifest jobs through Batch.Driver on two domains --------------- *)

let batch_domains = 2

let batch_schedules = [ P.Pluto_default; P.Mlt_linalg; P.Mlt_blas; P.Mlt_affine_blis ]

let pick rng lo hi step = lo + (step * Random.State.int rng (((hi - lo) / step) + 1))

(* One mini-C source per Figure-9 kernel family at seeded sizes. *)
let family_sources rng =
  let l2 () = pick rng 32 320 8 and l3 () = pick rng 16 128 8 in
  [
    (fun () -> W.atax ~m:(l2 ()) ~n:(l2 ()) ());
    (fun () -> W.bicg ~m:(l2 ()) ~n:(l2 ()) ());
    (fun () -> W.gemver ~n:(l2 ()) ());
    (fun () -> W.gesummv ~n:(l2 ()) ());
    (fun () -> W.mvt ~n:(l2 ()) ());
    (fun () -> W.two_mm ~ni:(l3 ()) ~nj:(l3 ()) ~nk:(l3 ()) ~nl:(l3 ()) ());
    (fun () -> W.three_mm ~ni:(l3 ()) ~nj:(l3 ()) ~nk:(l3 ()) ~nl:(l3 ()) ~nm:(l3 ()) ());
    (fun () -> W.gemm ~ni:(l3 ()) ~nj:(l3 ()) ~nk:(l3 ()) ());
    (fun () ->
      W.conv2d_nchw ~c:(pick rng 2 8 1) ~h:(pick rng 12 40 1) ~w:(pick rng 12 40 1)
        ~f:(pick rng 2 8 1) ~kh:(pick rng 3 5 2) ~kw:(pick rng 3 5 2) ());
  ]
  @ List.map
      (fun (_, spec, sizes) () ->
        CS.c_source spec
          ~sizes:(List.map (fun (c, _) -> (c, pick rng 4 32 2)) sizes)
          ~name:"contraction" ())
      (CS.paper_benchmarks ())

let malformed_c = "void broken(float A[8][8]) {\n  for (int i = 0; i < 8; ++i)\n    A[i][0] = ;\n}\n"
let malformed_ir = "\"func.func\"() ({\n^bb0(%arg0: memref<4xf32>):\n  %0 = \"arith.constant\"(\n"

type batch_inputs = {
  b_manifest : Batch.Manifest.t;
  b_malformed : int list;  (** manifest indices that must fail *)
  b_oracle : Batch.Driver.entry_result array;  (** [domains:1], no cache *)
}

(* The manifest: 16 kernel families x 3 seeded sizes x 4 schedules, a
   quarter of the sources as printed .mlir files; 4 long matrix chains
   at even positions, so the static [i mod 2] stripe always hands every
   heavy entry to shard 0; and 2 malformed files that must fail with a
   located diagnostic. 198 entries, all with distinct cache keys. *)
let batch_inputs ~seed ~dir =
  P.register_dialects ();
  let rng = Random.State.make [| seed; 2 |] in
  let in_dir = Filename.concat dir "inputs" in
  Support.Atomic_io.mkdir_p in_dir;
  let seen = Hashtbl.create 64 in
  let rec fresh gen tries =
    let src = gen () in
    if Hashtbl.mem seen src && tries > 0 then fresh gen (tries - 1)
    else (Hashtbl.replace seen src (); src)
  in
  let sources =
    Array.of_list
      (List.concat_map (fun gen -> List.init 3 (fun _ -> fresh gen 50)) (family_sources rng))
  in
  let as_ir = Array.init (Array.length sources) (fun i -> i < Array.length sources / 4) in
  shuffle rng as_ir;
  let write name text =
    write_file (Filename.concat in_dir name) text;
    "inputs/" ^ name
  in
  let normal =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i src ->
              let path =
                if as_ir.(i) then
                  write (spf "k%02d.mlir" i)
                    (Ir.Printer.op_to_string (Met.Emit_affine.translate src) ^ "\n")
                else write (spf "k%02d.c" i) src
              in
              List.map (fun c -> (spf "k%02d-%s" i (P.config_name c), path, c)) batch_schedules)
            (Array.to_list sources)))
  in
  shuffle rng normal;
  let heavy =
    List.init 4 (fun i ->
        let dims = List.init 17 (fun _ -> pick rng 16 96 8) in
        (spf "chain%d" i, write (spf "chain%d.c" i) (W.matrix_chain dims), P.Mlt_blas))
  in
  let malformed =
    [
      ("malformed-c", write "malformed.c" malformed_c, P.Mlt_linalg);
      ("malformed-ir", write "malformed.mlir" malformed_ir, P.Mlt_linalg);
    ]
  in
  let n = Array.length normal + List.length heavy + List.length malformed in
  let slots = Array.make n None in
  let evens = Array.init (n / 2) (fun i -> 2 * i) in
  shuffle rng evens;
  List.iteri (fun i e -> slots.(evens.(i)) <- Some e) heavy;
  let free () = List.filter (fun i -> slots.(i) = None) (List.init n Fun.id) in
  let malformed_at =
    List.map
      (fun e ->
        let f = Array.of_list (free ()) in
        let i = f.(Random.State.int rng (Array.length f)) in
        slots.(i) <- Some e;
        i)
      malformed
  in
  List.iteri (fun k i -> slots.(i) <- Some normal.(k)) (free ());
  let entry (name, path, c) =
    J.Obj [ ("name", J.Str name); ("path", J.Str path); ("pipeline", J.Str (P.config_name c)) ]
  in
  let manifest_path = Filename.concat dir "manifest.json" in
  write_file manifest_path
    (J.to_string (J.Obj [ ("entries", J.List (Array.to_list (Array.map (fun s -> entry (Option.get s)) slots))) ]));
  let manifest = Batch.Manifest.load manifest_path in
  let oracle = Batch.Driver.run ~domains:1 manifest in
  { b_manifest = manifest; b_malformed = malformed_at;
    b_oracle = Array.of_list oracle.Batch.Driver.rp_results }

(* A job is correct when every entry reproduces the sequential oracle's IR
   and result signature, and exactly the malformed entries fail, each
   with a diagnostic located in its own file. *)
let check_job b ~expect_cached (rp : Batch.Driver.report) =
  let results = Array.of_list rp.rp_results in
  let ok = ref (Array.length results = Array.length b.b_oracle) in
  if !ok then
    Array.iteri
      (fun i (r : Batch.Driver.entry_result) ->
        let o = b.b_oracle.(i) in
        let good =
          match (o.r_status, r.r_status) with
          | Done, Done ->
              (not (List.mem i b.b_malformed))
              && String.equal r.r_ir o.r_ir
              && String.equal (Batch.Driver.result_signature r) (Batch.Driver.result_signature o)
              && ((not expect_cached) || r.r_cached)
          | Failed _, Failed msg ->
              List.mem i b.b_malformed
              && (contains ~sub:"malformed.c:" msg || contains ~sub:"malformed.mlir:" msg)
          | _ -> false
        in
        if not good then begin
          note "batch: entry %s differs from the oracle" r.r_name;
          ok := false
        end)
      results;
  !ok

let count_job (rp : Batch.Driver.report) =
  if !tracing then begin
    let shard_busy = Array.make rp.rp_domains 0. in
    List.iter
      (fun (r : Batch.Driver.entry_result) ->
        shard_busy.(r.r_shard) <- shard_busy.(r.r_shard) +. r.r_seconds;
        (* A cached result carries the counts of the compile that made it. *)
        if not r.r_cached then begin
          count "rewriter.attempts" (float_of_int r.r_match_attempts);
          count "rewriter.rewrites" (float_of_int r.r_rewrites)
        end)
      rp.rp_results;
    Array.iteri (fun i s -> count (spf "pool.shard%d_busy_s" i) s) shard_busy;
    count "pool.domains" (float_of_int rp.rp_domains);
    count "pool.wall_s" rp.rp_wall_seconds;
    count "pool.busy_s" (Batch.Driver.total_entry_seconds rp)
  end

let batch_job b ~cache_dir =
  let cache = layer "cache.open" (fun () -> Batch.Cache.open_ ~dir:cache_dir) in
  layer "pool.run" (fun () -> Batch.Driver.run ~domains:batch_domains ~cache b.b_manifest)

let perturb_oracle b =
  match
    List.find_opt
      (fun i -> b.b_oracle.(i).Batch.Driver.r_status = Batch.Driver.Done)
      (List.init (Array.length b.b_oracle) Fun.id)
  with
  | Some i -> b.b_oracle.(i) <- { (b.b_oracle.(i)) with r_ir = b.b_oracle.(i).r_ir ^ " " }
  | None -> ()

(* Every job compiles the whole manifest on the pool, without a cache:
   cache commits fsync, and fsync latency on a shared disk swings by 2x
   between runs, which would drown the pool and compiler in the timing. *)
let batch_setup ~seed ~dir =
  let b = batch_inputs ~seed ~dir in
  let request () =
    let rp = layer "pool.run" (fun () -> Batch.Driver.run ~domains:batch_domains b.b_manifest) in
    fun () ->
      count_job rp;
      check_job b ~expect_cached:false rp
  in
  { i_round = (fun () -> [ request ]); i_perturb = (fun () -> perturb_oracle b) }

(* Every warm job reopens the cache that the cold fill made, and must be
   served from it byte-identically to the fill. The fill runs once, before
   the first round and outside the set-up timing: its 196 stores make about
   600 fsyncs, and on the development host's shared disk the median set-up
   with the fill in it moved by 23% between sets of runs minutes apart. *)
let batch_warm_setup ~seed ~dir =
  let b = batch_inputs ~seed ~dir in
  let cache_dir = Filename.concat dir "cache" in
  let cold_ir =
    lazy
      (let cold = batch_job b ~cache_dir in
       if not (check_job b ~expect_cached:false cold) then
         failwith "batch-warm: the cold fill differs from the sequential oracle";
       List.map (fun (r : Batch.Driver.entry_result) -> r.r_ir) cold.rp_results)
  in
  let request () =
    let rp = batch_job b ~cache_dir in
    fun () ->
      count_job rp;
      check_job b ~expect_cached:true rp
      && List.equal String.equal (Lazy.force cold_ir)
           (List.map (fun (r : Batch.Driver.entry_result) -> r.r_ir) rp.rp_results)
      && rp.rp_cache_hits = Array.length b.b_oracle - List.length b.b_malformed
  in
  {
    i_round = (fun () -> ignore (Lazy.force cold_ir); [ request ]);
    i_perturb = (fun () -> ignore (Lazy.force cold_ir); perturb_oracle b);
  }

(* -- simulate: Figure-9 cells through the machine model --------------------- *)

type cell = { c_kernel : string; c_config : P.config; c_machine : MM.t }

let cell_key c = spf "%s\t%s\t%s" c.c_kernel (P.config_name c.c_config) c.c_machine.MM.name

let all_cells () =
  List.concat_map
    (fun (k, _) ->
      List.concat_map
        (fun config -> List.map (fun m -> { c_kernel = k; c_config = config; c_machine = m }) MM.platforms)
        (figure9_configs @ if List.mem k level2 then [ P.Pluto_best ] else []))
    (kernels ())

(* Every Machine.Perf.report field, in expected-file column order. *)
let report_fields (r : Machine.Perf.report) =
  let s = r.stats in
  [| r.seconds; r.loop_seconds; r.library_seconds; s.flops_scalar; s.flops_vector;
     s.mem_cycles; s.iterations; s.accesses |]

type expectation = {
  x_fields : float array;
  x_winner : string;  (** tuner winner, "-" for untuned cells *)
  x_candidates : int;
  x_evaluated : int;
  x_cost_us : int;
      (** wall-clock cost measured when the file was written: a hint that
          only orders cells into strata of similar cost *)
}

let expected_path = "perfbench/expected_simulate.tsv"

let expected_header =
  "# kernel\tschedule\tmachine\tseconds\tloop_seconds\tlibrary_seconds\tflops_scalar\t\
   flops_vector\tmem_cycles\titerations\taccesses\twinner\tcandidates\tevaluated\tcost_us"

let load_expected path =
  let tbl = Hashtbl.create 200 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char '\t' line with
        | [ k; s; m; f1; f2; f3; f4; f5; f6; f7; f8; w; c; e; cost ] ->
            Hashtbl.replace tbl (spf "%s\t%s\t%s" k s m)
              {
                x_fields = Array.map float_of_string [| f1; f2; f3; f4; f5; f6; f7; f8 |];
                x_winner = w;
                x_candidates = int_of_string c;
                x_evaluated = int_of_string e;
                x_cost_us = int_of_string cost;
              }
        | _ -> failwith (spf "%s: malformed line %S" path line))
    (String.split_on_char '\n' (read_file path));
  tbl

type sim_result = {
  s_report : Machine.Perf.report;
  s_tune : Tune.stats option;
  s_winner : string option;  (** tuner winner, when the search was ours *)
}

(* Pipeline's pluto-best call, layer by layer: the Pluto sweep as tuner
   candidates, searched on the recommended domain count. *)
let tune_cell src c =
  let probe = translate src in
  let space =
    layer "tune.space" (fun () ->
        Tune.pluto_space ~max_trip:(Tune.max_trip_count (sole_func probe)))
  in
  let domains = Domain.recommended_domain_count () in
  let t0 = now () in
  let o =
    layer "tune.search" (fun () ->
        Tune.search ~domains ~machine:c.c_machine
          ~translate:(fun () -> Met.Emit_affine.translate src)
          space)
  in
  count "tune.domains_x_s" (float_of_int domains *. (now () -. t0));
  count "tune.eval_busy_s"
    (List.fold_left (fun a (e : Tune.evaluation) -> a +. e.ev_wall_seconds) 0. o.o_evaluations);
  { s_report = o.o_best_report; s_tune = Some o.o_stats; s_winner = Some o.o_best.c_name }

(* Pipeline.time_schedule_ext, layer by layer when tracing. *)
let simulate_cell src c =
  if not !tracing then
    let r, st = P.time_schedule_ext (P.Config c.c_config) c.c_machine src in
    { s_report = r; s_tune = st; s_winner = None }
  else
    match c.c_config with
    | P.Pluto_best -> tune_cell src c
    | config ->
        let m = prepare (P.Config config) (translate src) in
        let r = layer "machine.sim" (fun () -> Machine.Perf.time_func c.c_machine (sole_func m)) in
        count "machine.accesses" r.stats.accesses;
        count "machine.iterations" r.stats.iterations;
        { s_report = r; s_tune = None; s_winner = None }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Bit-exact: every report field, and for a tuned cell the search size and
   (when the search ran in this file) the winning candidate. *)
let check_cell x s =
  Option.iter
    (fun (t : Tune.stats) ->
      count "tune.candidates" (float_of_int t.t_candidates);
      count "tune.evaluated" (float_of_int t.t_evaluated))
    s.s_tune;
  Array.for_all2 same_bits x.x_fields (report_fields s.s_report)
  && (match s.s_tune with
     | None -> x.x_winner = "-"
     | Some t -> t.t_candidates = x.x_candidates && t.t_evaluated = x.x_evaluated)
  && match s.s_winner with None -> true | Some w -> String.equal w x.x_winner

let simulate_setup ~seed ~dir =
  P.register_dialects ();
  let rng = Random.State.make [| seed; 3 |] in
  let expected = load_expected expected_path in
  let sources = List.map (fun (k, src) -> write_file (Filename.concat dir (k ^ ".c")) src; (k, src)) (kernels ()) in
  let cells = all_cells () in
  let expect c =
    match Hashtbl.find_opt expected (cell_key c) with
    | Some x -> x
    | None -> failwith (spf "%s has no line for %s" expected_path (cell_key c))
  in
  (* The 170 cells take about a minute. A (kernel, schedule) pair costs
     about the same on both machines, so a round runs every pair once, on
     machines alternating by cost rank: half the cells, and the same cost
     mix in every round. *)
  let pairs =
    List.filter_map
      (fun c ->
        if c.c_machine == List.hd MM.platforms then
          Some (List.filter (fun d -> d.c_kernel = c.c_kernel && d.c_config = c.c_config) cells)
        else None)
      cells
  in
  let cost pair = List.fold_left (fun a c -> a + (expect c).x_cost_us) 0 pair in
  let order = stratified_rounds rng ~cost pairs in
  let perturb = ref false in
  let corrupt = function
    | c :: _ ->
        let x = expect c in
        let f = Array.copy x.x_fields in
        f.(0) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float f.(0)) 1L);
        Hashtbl.replace expected (cell_key c) { x with x_fields = f }
    | [] -> ()
  in
  let request c () =
    let res = simulate_cell (List.assoc c.c_kernel sources) c in
    fun () ->
      let ok = check_cell (expect c) res in
      if not ok then note "simulate: %s differs from %s" (cell_key c) expected_path;
      ok
  in
  {
    i_round = (fun () -> List.map request (on_first_round perturb corrupt order ()));
    i_perturb = (fun () -> perturb := true);
  }

let regen_expected path =
  P.register_dialects ();
  let sources = kernels () in
  let lines =
    List.map
      (fun c ->
        let src = List.assoc c.c_kernel sources in
        let t0 = now () in
        let r, st = P.time_schedule_ext (P.Config c.c_config) c.c_machine src in
        let cost_us = int_of_float ((now () -. t0) *. 1e6) in
        let winner, cand, ev =
          match st with
          | None -> ("-", 0, 0)
          | Some (t : Tune.stats) ->
              let s = tune_cell src c in
              if not (Array.for_all2 same_bits (report_fields r) (report_fields s.s_report)) then
                failwith (spf "%s: the replayed tuner call disagrees" (cell_key c));
              (Option.get s.s_winner, t.t_candidates, t.t_evaluated)
        in
        Printf.eprintf "%s\n%!" (cell_key c);
        String.concat "\t"
          ([ cell_key c ]
          @ Array.to_list (Array.map (spf "%h") (report_fields r))
          @ [ winner; string_of_int cand; string_of_int ev; string_of_int cost_us ]))
      (all_cells ())
  in
  write_file path (String.concat "\n" (expected_header :: lines) ^ "\n")

(* -- verify: differential execution through the interpreter ----------------- *)

(* Pipeline.check_schedule_semantics, layer by layer when tracing: run the
   untransformed and the scheduled kernel on the same seeded inputs and
   compare every buffer. *)
let check_semantics ~seed config src =
  if not !tracing then P.check_schedule_semantics ~seed (P.Config config) src
  else begin
    let reference = translate src in
    let transformed = prepare (P.Config config) (translate src) in
    let name = Ir.Core.func_name (sole_func reference) in
    let run m =
      let f = Option.get (Ir.Core.find_func m name) in
      let args =
        layer "interp.inputs" (fun () ->
            List.mapi
              (fun i (v : Ir.Core.value) ->
                let b = Interp.Buffer.of_type v.v_typ in
                Interp.Buffer.randomize ~seed:(seed + i) b;
                b)
              (Ir.Core.func_args f))
      in
      let c = layer "interp.compile" (fun () -> Interp.Compile.compile_func f) in
      count "interp.checked" (float_of_int c.c_checked_accesses);
      count "interp.accesses" (float_of_int (c.c_checked_accesses + c.c_unchecked_accesses));
      layer "interp.exec" (fun () -> Interp.Compile.execute c args);
      args
    in
    let r1 = run reference in
    let r2 = run transformed in
    layer "interp.compare" (fun () ->
        List.length r1 = List.length r2
        && List.for_all2 (fun a b -> Interp.Buffer.approx_equal a b) r1 r2)
  end

(* The 16 Figure-9 kernels with every iteration space cut to about 1/27
   (each of k loop extents scaled by 27^(-1/k)): at Figure-9 sizes the 80
   pairs take 14 s, so a run would hold one round of 80 samples. At these
   sizes a round takes about 0.3 s. *)
let verify_kernels () =
  let lvl2 = 48 and mmn = 32 and gsz = 40 in
  [
    ("atax", W.atax ~m:lvl2 ~n:lvl2 ());
    ("bicg", W.bicg ~m:lvl2 ~n:lvl2 ());
    ("gemver", W.gemver ~n:lvl2 ());
    ("gesummv", W.gesummv ~n:lvl2 ());
    ("mvt", W.mvt ~n:lvl2 ());
    ("2mm", W.two_mm ~ni:mmn ~nj:mmn ~nk:mmn ~nl:mmn ());
    ("3mm", W.three_mm ~ni:mmn ~nj:mmn ~nk:mmn ~nl:mmn ~nm:mmn ());
    ("gemm", W.gemm ~ni:gsz ~nj:gsz ~nk:gsz ());
    ("conv2d-nchw", W.conv2d_nchw ~c:4 ~h:16 ~w:16 ~f:4 ~kh:5 ~kw:5 ());
  ]
  @ List.map
      (fun (name, spec, sizes) ->
        let scale = 27. ** (-1. /. float_of_int (List.length sizes)) in
        let shrink (c, n) = (c, max 2 (2 * int_of_float (Float.round (float_of_int n *. scale /. 2.)))) in
        (name, CS.c_source spec ~sizes:(List.map shrink sizes) ~name:"contraction" ()))
      (CS.paper_benchmarks ())

(* Every round covers all 80 pairs; the seed orders them and seeds each
   check's input battery. *)
let verify_setup ~seed ~dir =
  P.register_dialects ();
  if !Interp.Eval.default_engine <> Interp.Eval.Compiled then
    failwith "verify: the traced decomposition assumes the compiled interpreter";
  let rng = Random.State.make [| seed; 4 |] in
  let sources = List.map (fun (k, src) -> write_file (Filename.concat dir (k ^ ".c")) src; (k, src)) (verify_kernels ()) in
  let pairs = List.concat_map (fun (k, _) -> List.map (fun c -> (k, c)) figure9_configs) sources in
  let order = shuffled_rounds rng pairs in
  let request (k, config) =
    let input_seed = Random.State.bits rng in
    fun () ->
      let ok = check_semantics ~seed:input_seed config (List.assoc k sources) in
      fun () ->
        if not ok then note "verify: %s/%s diverged" k (P.config_name config);
        ok
  in
  {
    i_round = (fun () -> List.map request (order ()));
    i_perturb = (fun () -> failwith "verify has no expectation to perturb");
  }

let workloads =
  [
    { w_name = "compile"; w_tail = 0.99; w_domains = 1; w_setups = 7; w_trace_rate = 400.;
      w_rss_requests = 4000; w_setup = compile_setup };
    { w_name = "batch"; w_tail = 0.90; w_domains = batch_domains; w_setups = 5; w_trace_rate = 10.;
      w_rss_requests = 10; w_setup = batch_setup };
    { w_name = "batch-warm"; w_tail = 0.90; w_domains = batch_domains; w_setups = 5;
      w_trace_rate = 20.; w_rss_requests = 100; w_setup = batch_warm_setup };
    { w_name = "simulate"; w_tail = 0.85; w_domains = 1; w_setups = 21; w_trace_rate = 2.5;
      w_rss_requests = 85; w_setup = simulate_setup };
    { w_name = "verify"; w_tail = 0.95; w_domains = 1; w_setups = 21; w_trace_rate = 40.;
      w_rss_requests = 800; w_setup = verify_setup };
  ]

(* ---- the closed loop ----------------------------------------------------------- *)

type outcome = {
  latencies : float list;  (** wall-clock seconds *)
  scaled : float list;  (** the same, in reference seconds *)
  references : float list;  (** the reference times taken during the run *)
  attempted : int;
  failed : int;
  rss_mb : float;  (** peak RSS once [rss_requests] requests completed *)
}

(* ---- host speed --------------------------------------------------------------

   The shared host's speed swings by up to 2x, in episodes of seconds to
   minutes, with no steal time: a fixed CPU loop takes anywhere from 0.34
   to 0.68 s, and process CPU time swings with it (README.md, "Spread").
   So the benchmark times a fixed reference loop of its own — no code of
   the repository — next to the requests, and reports durations in
   reference seconds: wall seconds x [reference_nominal_s] / the reference
   loop's wall time at that moment. *)

let reference_nominal_s = 0.010
let block_seconds = 0.25

(* One 2 MB table per domain the loop may run on, outside the OCaml heap
   so that it does not change the program's GC pacing. *)
let reference_tables =
  Array.init 2 (fun _ ->
      let t = Bigarray.(Array1.create int c_layout (1 lsl 18)) in
      Bigarray.Array1.fill t 0;
      t)

(* About 10 ms: half of it array, integer and allocation work in the L1
   cache, half of it scattered reads and writes over 2 MB. *)
let reference_loop d () =
  let t0 = now () in
  let buf = Array.make 4096 0 and h = Hashtbl.create 64 and acc = ref 0 in
  for i = 0 to 1_250_000 do
    let j = (i * 7919) land 4095 in
    buf.(j) <- buf.(j) + i;
    acc := !acc + buf.((j * 31) land 4095);
    if i land 63 = 0 then Hashtbl.replace h (i land 1023) (string_of_int i)
  done;
  let big = reference_tables.(d) and x = ref 12345 in
  for _ = 0 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land ((1 lsl 18) - 1) in
    big.{j} <- big.{j} + 1;
    acc := !acc + big.{j lxor 1}
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* The reference time of a workload whose requests run on [domains]
   domains: the mean of the loop run on that many domains at once, since
   each vCPU of the host slows down on its own. *)
let reference_seconds ~domains =
  let others = List.init (domains - 1) (fun i -> Domain.spawn (reference_loop (i + 1))) in
  let mine = reference_loop 0 () in
  let all = mine :: List.map Domain.join others in
  List.fold_left ( +. ) 0. all /. float_of_int domains

let exec_request (req : request) =
  let regions0 = Ir.Core.region_registry_size () in
  let t0 = now () in
  let result = try Ok (req ()) with e -> Error e in
  let dt = now () -. t0 in
  let ok =
    match result with
    | Ok check -> ( try check () with e -> note "checker raised %s" (Printexc.to_string e); false)
    | Error e ->
        note "request raised %s" (Printexc.to_string e);
        false
  in
  count "ir.retained_regions" (float_of_int (Ir.Core.region_registry_size () - regions0));
  (dt, ok)

(* Runs whole rounds and stops at the round boundary nearest the deadline
   (always after at least one round), so every run of a workload sends the
   same mix. The host's reference time is taken before the first request
   and whenever the requests since the last one have been busy for
   [block_seconds]; each request's latency is scaled by the mean of the
   reference times around it. Peak RSS is read at a fixed request count,
   not at the end: the IR registry retains modules, so a faster build would
   otherwise report more memory for doing more work in the same time. *)
let closed_loop ~seconds ~domains ~rss_requests round =
  let lat = ref [] and scaled = ref [] and n = ref 0 and failed = ref 0 and rss = ref None in
  let refs = ref [] and block = ref [] and block_busy = ref 0. in
  let last_ref = ref (reference_seconds ~domains) in
  let close_block () =
    let r = reference_seconds ~domains in
    let s = reference_nominal_s /. ((!last_ref +. r) /. 2.) in
    List.iter (fun dt -> scaled := (dt *. s) :: !scaled) !block;
    refs := r :: !refs;
    last_ref := r;
    block := [];
    block_busy := 0.
  in
  let t0 = now () and rounds = ref 0 in
  let continue () =
    let elapsed = now () -. t0 in
    !rounds = 0 || seconds -. elapsed > elapsed /. float_of_int !rounds /. 2.
  in
  while continue () do
    List.iter
      (fun req ->
        let dt, ok = exec_request req in
        incr n;
        lat := dt :: !lat;
        block := dt :: !block;
        block_busy := !block_busy +. dt;
        if not ok then incr failed;
        if !n = rss_requests then rss := Some (peak_rss_mb ());
        if !block_busy >= block_seconds then close_block ())
      (round ());
    incr rounds
  done;
  if !block <> [] then close_block ();
  { latencies = !lat; scaled = !scaled; references = !refs; attempted = !n; failed = !failed;
    rss_mb = (match !rss with Some r -> r | None -> peak_rss_mb ()) }

let replay reqs =
  let lat = ref [] and failed = ref 0 in
  Array.iter
    (fun r ->
      let dt, ok = exec_request r in
      lat := dt :: !lat;
      if not ok then incr failed)
    reqs;
  { latencies = !lat; scaled = []; references = []; attempted = Array.length reqs;
    failed = !failed; rss_mb = 0. }

(* The first [k] requests of the seeded order. *)
let prefix round k =
  let buf = ref [] in
  while List.length !buf < k do buf := !buf @ round () done;
  Array.of_list (List.filteri (fun i _ -> i < k) !buf)

let sum = List.fold_left ( +. ) 0.

(* ---- per-layer report ---------------------------------------------------------- *)

let histogram_p50_us samples name =
  match
    List.find_opt (fun (s : Ir.Metrics.sample) -> s.s_metric = name) samples
  with
  | Some { s_value = Ir.Metrics.V_histogram h; _ } when h.h_count > 0 ->
      let target = max 1 ((h.h_count + 1) / 2) in
      let cum = ref 0 and result = ref 0. in
      Array.iteri
        (fun i n ->
          if !cum < target then begin
            cum := !cum + n;
            if !cum >= target then result := Ir.Metrics.bucket_upper_seconds i
          end)
        h.h_buckets;
      !result *. 1e6
  | _ -> 0.

let counter samples name =
  match List.find_opt (fun (s : Ir.Metrics.sample) -> s.s_metric = name) samples with
  | Some { s_value = Ir.Metrics.V_counter n; _ } -> float_of_int n
  | _ -> 0.

let ratio a b = if b > 0. then a /. b else 0.

(* Layer metrics: seconds are means per traced request, counts and bytes
   totals over the traced prefix (exact for a given seed and length). *)
let per_layer_metrics ~k ~request_wall ~untraced_rps ~traced_rps ~samples =
  let per_req name = total layer_seconds name /. float_of_int k in
  let c = total counts in
  let attempts, rewrites = (c "rewriter.attempts", c "rewriter.rewrites") in
  let attributed = Hashtbl.fold (fun _ v acc -> acc +. !v) layer_seconds 0. in
  let domains = c "pool.domains" in
  let shard_busy =
    List.filter_map
      (fun i ->
        let v = c (spf "pool.shard%d_busy_s" i) in
        if v > 0. then Some v else None)
      (List.init batch_domains Fun.id)
  in
  let imbalance =
    match shard_busy with
    | [] -> 0.
    | l -> ratio (List.fold_left Float.max 0. l) (sum l /. float_of_int (List.length l))
  in
  [
    ("met.parse_s", per_req "met.parse", "s");
    ("met.distribute_s", per_req "met.distribute", "s");
    ("met.emit_s", per_req "met.emit", "s");
    ("met.ops_out", c "met.ops_out", "count");
    ("ir_parser.s", per_req "ir_parser", "s");
    ("ir_parser.bytes", c "ir_parser.bytes", "B");
    ("transform.compile_s", per_req "transform.compile", "s");
  ]
  @ List.map
      (fun step -> ("transform.apply_s." ^ step, per_req ("transform.apply." ^ step), "s"))
      (Lazy.force step_metrics)
  @ [
      ("transform.minor_words", c "transform.minor_words", "words");
      ("rewriter.attempts", attempts, "count");
      ("rewriter.rewrites", rewrites, "count");
      ("rewriter.hit_ratio", ratio rewrites attempts, "ratio");
      ("verifier.s", per_req "verifier", "s");
      ("printer.s", per_req "printer", "s");
      ("printer.bytes", c "printer.bytes", "B");
      ("ir.retained_regions", c "ir.retained_regions", "count");
      ("cache.open_s", per_req "cache.open", "s");
      ("cache.hits", counter samples "mlt_cache_hits", "count");
      ("cache.misses", counter samples "mlt_cache_misses", "count");
      ("cache.find_p50_us", histogram_p50_us samples "mlt_cache_find_seconds", "us");
      ("cache.store_p50_us", histogram_p50_us samples "mlt_cache_store_seconds", "us");
      ("pool.wall_s", c "pool.wall_s" /. float_of_int k, "s");
      ("pool.busy_s", c "pool.busy_s" /. float_of_int k, "s");
      ("pool.utilisation", ratio (c "pool.busy_s") (c "pool.wall_s" *. ratio domains (float_of_int k)), "ratio");
      ("pool.imbalance", imbalance, "ratio");
      ("machine.sim_s", per_req "machine.sim", "s");
      ("machine.accesses", c "machine.accesses", "count");
      ("machine.iterations", c "machine.iterations", "count");
      ("machine.accesses_per_s", ratio (c "machine.accesses") (total layer_seconds "machine.sim"), "1/s");
      ("tune.search_s", per_req "tune.search", "s");
      ("tune.candidates", c "tune.candidates", "count");
      ("tune.evaluated", c "tune.evaluated", "count");
      ("tune.eval_busy_s", c "tune.eval_busy_s" /. float_of_int k, "s");
      ("tune.pool_utilisation", ratio (c "tune.eval_busy_s") (c "tune.domains_x_s"), "ratio");
      ("interp.inputs_s", per_req "interp.inputs", "s");
      ("interp.compile_s", per_req "interp.compile", "s");
      ("interp.exec_s", per_req "interp.exec", "s");
      ("interp.compare_s", per_req "interp.compare", "s");
      ("interp.checked_share", ratio (c "interp.checked") (c "interp.accesses"), "ratio");
      ("trace.unattributed_share", ratio (request_wall -. attributed) request_wall, "ratio");
      ("trace.untraced_requests_per_s", untraced_rps, "req/s");
      ("trace.traced_requests_per_s", traced_rps, "req/s");
      ("trace.overhead", ratio untraced_rps traced_rps, "ratio");
    ]

(* ---- entry point ------------------------------------------------------------------- *)

let result_line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.num_int attempted);
         ("failed", J.num_int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, v, unit) ->
                  let v = if Float.is_finite v then v else 0. in
                  (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
                metrics) );
       ])

let print_metrics w metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%s %s %.6g %s\n" w.w_name name v unit) metrics

let run_workload w ~seed ~seconds ~trace ~work_dir ~perturb =
  rm_rf work_dir;
  Support.Atomic_io.mkdir_p work_dir;
  (* Set-up, several times over fresh directories, each between two
     reference times; setup_s is the median in reference seconds and the
     last instance serves the requests. *)
  let last_ref = ref (reference_seconds ~domains:1) in
  let setups =
    List.init w.w_setups (fun j ->
        let dir = Filename.concat work_dir (spf "setup-%d" j) in
        Support.Atomic_io.mkdir_p dir;
        let t0 = now () in
        let inst = w.w_setup ~seed ~dir in
        let dt = now () -. t0 in
        let r = reference_seconds ~domains:1 in
        let scaled = dt *. reference_nominal_s /. ((!last_ref +. r) /. 2.) in
        last_ref := r;
        if j < w.w_setups - 1 then rm_rf dir;
        ((dt, scaled), inst))
  in
  let setup_s = median (List.map (fun ((_, s), _) -> s) setups) in
  let setup_wall_s = median (List.map (fun ((dt, _), _) -> dt) setups) in
  let inst = snd (List.nth setups (w.w_setups - 1)) in
  if perturb then inst.i_perturb ();
  let emit ~attempted ~failed metrics =
    let correct = failed = 0 in
    List.iter (fun m -> Printf.eprintf "perfbench: %s\n" m) (List.rev !fail_msg);
    print_endline (result_line ~correct ~attempted ~failed metrics);
    exit (if correct then 0 else 1)
  in
  if not trace then begin
    let o = closed_loop ~seconds ~domains:w.w_domains ~rss_requests:w.w_rss_requests inst.i_round in
    let n = o.attempted in
    (* requests per second, p50 and tail of a list of latencies *)
    let timings latencies =
      let lat = Array.of_list latencies in
      Array.sort compare lat;
      (float_of_int n /. sum latencies, percentile lat 0.5, percentile lat w.w_tail)
    in
    let rps, p50, tail = timings o.scaled in
    let metrics =
      [
        ("setup_s", setup_s, "s");
        ("requests_per_s", rps, "req/s");
        ("latency_p50_ms", p50 *. 1e3, "ms");
        ("latency_tail_ms", tail *. 1e3, "ms");
        ("peak_rss_mb", o.rss_mb, "MB");
      ]
    in
    print_metrics w metrics;
    let pct = spf "p%g" (w.w_tail *. 100.) in
    let beyond = n - int_of_float (Float.ceil (w.w_tail *. float_of_int n)) in
    Printf.printf "%s latency_tail_ms is %s of %d samples (%d beyond it)\n" w.w_name pct n beyond;
    Printf.printf "%s failed_share %.6g ratio (%d of %d)\n" w.w_name
      (float_of_int o.failed /. float_of_int n) o.failed n;
    let wall_rps, wall_p50, wall_tail = timings o.latencies in
    Printf.printf
      "%s in wall-clock time: setup %.4g s, %.1f req/s, p50 %.3f ms, %s %.3f ms; reference loop \
       median %.2f ms over %d reads (nominal %.0f ms)\n"
      w.w_name setup_wall_s wall_rps (wall_p50 *. 1e3) pct (wall_tail *. 1e3)
      (median o.references *. 1e3) (List.length o.references) (reference_nominal_s *. 1e3);
    Printf.printf "%s: %d requests, %.1f req/s, p50 %.2f ms, %s %.2f ms, %d failures\n%!" w.w_name n
      rps (p50 *. 1e3) pct (tail *. 1e3) o.failed;
    emit ~attempted:n ~failed:o.failed metrics
  end
  else begin
    (* The traced run: one fixed prefix of the seeded order, first
       untraced (the overhead baseline), then traced with Ir.Metrics on. *)
    let k = max 2 (int_of_float (w.w_trace_rate *. seconds /. 2.)) in
    let reqs = prefix inst.i_round k in
    let plain = replay reqs in
    let untraced_rps = float_of_int k /. sum plain.latencies in
    Ir.Metrics.set_enabled true;
    let t0 = now () in
    let handle =
      Ir.Trace.install (fun ev -> if ev.Ir.Trace.ev_cat = "perfbench" then events := ev :: !events)
    in
    tracing := true;
    let traced =
      replay
        (Array.map
           (fun (r : request) () ->
             Ir.Trace.span ~cat:"perfbench" ("request." ^ w.w_name) r)
           reqs)
    in
    tracing := false;
    Ir.Trace.uninstall handle;
    Ir.Metrics.set_enabled false;
    let samples = Ir.Metrics.snapshot () in
    let request_wall = sum traced.latencies in
    let metrics =
      per_layer_metrics ~k ~request_wall ~untraced_rps
        ~traced_rps:(float_of_int k /. request_wall) ~samples
    in
    let trace_path = Filename.concat work_dir "trace.json" in
    let metrics_path = Filename.concat work_dir "metrics.json" in
    write_file trace_path (chrome_trace ~t0);
    Ir.Metrics.write ~path:metrics_path samples;
    print_metrics w metrics;
    Printf.printf "%s trace %s metrics %s\n" w.w_name trace_path metrics_path;
    let value name = List.find_map (fun (n, v, _) -> if n = name then Some v else None) metrics in
    Printf.printf "%s: %d traced requests, %.1f%% unattributed, tracing overhead %.2fx, %d failures\n%!"
      w.w_name k
      (100. *. Option.get (value "trace.unattributed_share"))
      (Option.get (value "trace.overhead"))
      (plain.failed + traced.failed);
    emit ~attempted:(2 * k) ~failed:(plain.failed + traced.failed) metrics
  end

let () =
  Printexc.record_backtrace true;
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let regen = ref "" and perturb = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME compile|batch|batch-warm|simulate|verify");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--regen-expected", Arg.Set_string regen, "FILE rewrite the simulate expectations");
      ("--perturb", Arg.Set perturb, " corrupt one expectation (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !regen <> "" then regen_expected !regen
  else
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | None ->
        prerr_endline ("bench: unknown workload " ^ !workload);
        exit 2
    | Some w ->
        run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~work_dir:(Filename.concat ".perfbench_work" w.w_name)
          ~perturb:!perturb
