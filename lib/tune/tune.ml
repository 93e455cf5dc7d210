module Script = Transform.Script
module Interp = Transform.Interp
module T = Transforms
module D = Support.Diag
open Ir

type candidate = { c_name : string; c_steps : Script.step list }

type evaluation = {
  ev_candidate : candidate;
  ev_seconds : float option;
  ev_wall_seconds : float;
  ev_error : string option;
}

type stats = {
  t_candidates : int;
  t_evaluated : int;
  t_simulated : int;
  t_best_seconds : float;
  t_eval_latency : Metrics.histogram_snapshot;
}

type outcome = {
  o_best : candidate;
  o_best_index : int;
  o_best_report : Machine.Perf.report;
  o_stats : stats;
  o_evaluations : evaluation list;
}

let max_trip_count f =
  List.fold_left
    (fun acc loop ->
      match Affine.Affine_ops.for_trip_count loop with
      | Some t -> max acc t
      | None -> acc)
    1
    (Affine.Loops.all_loops f)

(* ---- candidate spaces ---------------------------------------------------- *)

let pluto_space ~max_trip =
  List.map
    (fun (c : T.Pluto.config) ->
      {
        c_name = "pluto-" ^ T.Pluto.config_to_string c;
        c_steps = Script.of_pluto c;
      })
    (T.Pluto.sweep_configs ~max_trip)

let blis_space ?(quick = false) () =
  let raised = [ Script.Canonicalize false; Script.Raise "affine-matmul" ] in
  let library_call =
    (* Keep affine.matmul: Machine.Perf times it through the analytic
       library model — the Mlt_affine_blis schedule. *)
    { c_name = "blis-library"; c_steps = raised }
  in
  let blockings =
    if quick then [ T.Blis_schedule.default_blocking ]
    else
      List.concat_map
        (fun mc ->
          List.concat_map
            (fun nc ->
              List.map
                (fun kc -> { T.Blis_schedule.mc; nc; kc })
                [ 64; 128; 256 ])
            [ 128; 256; 512 ])
        [ 32; 64; 128 ]
  in
  library_call
  :: List.map
       (fun (b : T.Blis_schedule.blocking) ->
         {
           c_name =
             Printf.sprintf "blis-mc%d-nc%d-kc%d" b.T.Blis_schedule.mc
               b.T.Blis_schedule.nc b.T.Blis_schedule.kc;
           c_steps = raised @ [ Script.Blis_schedule b ];
         })
       blockings

let gemm_space ?(quick = false) ~max_trip () =
  let pluto =
    if quick then
      List.map
        (fun (c : T.Pluto.config) ->
          {
            c_name = "pluto-" ^ T.Pluto.config_to_string c;
            c_steps = Script.of_pluto c;
          })
        [
          T.Pluto.default_config;
          { T.Pluto.tile = 1; fusion = T.Loop_fuse.Smart_fuse; vectorize = false };
          { T.Pluto.tile = 16; fusion = T.Loop_fuse.Smart_fuse; vectorize = true };
        ]
    else pluto_space ~max_trip
  in
  pluto @ blis_space ~quick ()

(* ---- the search ----------------------------------------------------------- *)

let sole_func m =
  match List.filter Core.is_func (Core.ops_of_block (Core.module_block m)) with
  | [ f ] -> f
  | fs -> D.errorf "tune: expected one kernel, found %d" (List.length fs)

let m_eval_seconds =
  Support.Once.make (fun () ->
      Metrics.histogram ~help:"tuner candidate-evaluation wall-clock"
        "mlt_tune_eval_seconds")

(* Two candidates share a key exactly when the simulator cannot tell
   them apart: the printed function, plus its attributes, which the
   printer omits but [Machine.Perf.time_func] reads ([fast_math], set by
   [transform.interchange]). *)
let schedule_key f =
  let attrs =
    List.sort compare
      (List.map (fun (k, a) -> k ^ "=" ^ Attr.to_string a) f.Core.o_attrs)
  in
  Support.Digest.strings (Printer.op_to_string f :: attrs)

let search ?(domains = 1) ~machine ~translate candidates =
  let cands = Array.of_list candidates in
  let n = Array.length cands in
  if n = 0 then D.errorf "tune: empty candidate space";
  (* Every script is resolved here: step resolution may freeze pattern
     sets, and frozen sets are the shareable form (docs/CONCURRENCY.md).
     Workers only read the closures. *)
  let compiled = Array.map (fun c -> Interp.compile_steps c.c_steps) cands in
  let results : (Machine.Perf.report option * string option) array =
    Array.make n (None, None)
  in
  let error_of = function
    | D.Error (loc, msg) -> D.to_string loc msg
    | exn -> Printexc.to_string exn
  in
  (* Wall-clock cost of evaluating each candidate — the tuner's own
     latency, distinct from the modelled seconds it scores. Each slot is
     written by exactly one worker per phase; the pool's joins publish
     them. *)
  let walls = Array.make n 0. in
  let timed i f =
    let t0 = Unix.gettimeofday () in
    f ();
    walls.(i) <- walls.(i) +. (Unix.gettimeofday () -. t0)
  in
  (* Phase 1: translate, apply and verify every candidate, keeping the
     transformed function and its key. *)
  let payloads : (Core.op * Support.Digest.t) option array =
    Array.make n None
  in
  let prepare ~worker:_ i =
    timed i (fun () ->
        match
          let m = translate () in
          let f = sole_func m in
          List.iter (fun c -> ignore (Interp.apply_step c f)) compiled.(i);
          Verifier.verify m;
          (f, schedule_key f)
        with
        | slot -> payloads.(i) <- Some slot
        | exception exn -> results.(i) <- (None, Some (error_of exn)))
  in
  (* Phase 2: simulate the first candidate of each key group only. *)
  let simulate reps ~worker:_ j =
    let i = reps.(j) in
    timed i (fun () ->
        let f = fst (Option.get payloads.(i)) in
        match Machine.Perf.time_func machine f with
        | report -> results.(i) <- (Some report, None)
        | exception exn -> results.(i) <- (None, Some (error_of exn)))
  in
  let rep_of = Array.make n (-1) in
  let simulated =
    Trace.span ~cat:"driver" "tune-search" (fun () ->
        Support.Pool.run ~domains n prepare;
        (* Group in candidate order on the calling domain, so each
           group's representative is its lowest index whatever the
           domain count. *)
        let first = Hashtbl.create n in
        Array.iteri
          (fun i slot ->
            Option.iter
              (fun (_, key) ->
                rep_of.(i) <-
                  Option.value (Hashtbl.find_opt first key) ~default:i;
                if rep_of.(i) = i then Hashtbl.add first key i)
              slot)
          payloads;
        let reps =
          Array.of_list
            (List.filter (fun i -> rep_of.(i) = i) (List.init n Fun.id))
        in
        Support.Pool.run ~domains (Array.length reps) (simulate reps);
        Array.length reps)
  in
  (* The simulator is deterministic, so equal keys give equal reports:
     every member takes its representative's outcome. *)
  Array.iteri
    (fun i r -> if r >= 0 && r <> i then results.(i) <- results.(r))
    rep_of;
  let eval_seconds = Support.Once.get m_eval_seconds in
  Array.iter (Metrics.observe eval_seconds) walls;
  (* First strict minimum in candidate order — the exact argmin the
     legacy sequential Pluto sweep computed. *)
  let best = ref None in
  Array.iteri
    (fun i (r, _) ->
      match r with
      | None -> ()
      | Some (rep : Machine.Perf.report) -> (
          match !best with
          | Some (_, (b : Machine.Perf.report))
            when b.Machine.Perf.seconds <= rep.Machine.Perf.seconds ->
              ()
          | _ -> best := Some (i, rep)))
    results;
  match !best with
  | None ->
      let first_error =
        Array.fold_left
          (fun acc (_, e) -> match acc with Some _ -> acc | None -> e)
          None results
      in
      D.errorf "tune: no candidate evaluated successfully%s"
        (match first_error with Some e -> ": " ^ e | None -> "")
  | Some (best_index, report) ->
      let evaluated =
        Array.fold_left
          (fun acc (r, _) -> if r <> None then acc + 1 else acc)
          0 results
      in
      let evaluations =
        List.mapi
          (fun j c ->
            let r, e = results.(j) in
            {
              ev_candidate = c;
              ev_seconds =
                Option.map
                  (fun (r : Machine.Perf.report) -> r.Machine.Perf.seconds)
                  r;
              ev_wall_seconds = walls.(j);
              ev_error = e;
            })
          candidates
      in
      let eval_latency =
        let buckets = Array.make Metrics.bucket_count 0 in
        let sum = ref 0. in
        Array.iter
          (fun w ->
            sum := !sum +. w;
            let b = Metrics.bucket_of_seconds w in
            buckets.(b) <- buckets.(b) + 1)
          walls;
        { Metrics.h_count = n; h_sum = !sum; h_buckets = buckets }
      in
      {
        o_best = cands.(best_index);
        o_best_index = best_index;
        o_best_report = report;
        o_stats =
          {
            t_candidates = n;
            t_evaluated = evaluated;
            t_simulated = simulated;
            t_best_seconds = report.Machine.Perf.seconds;
            t_eval_latency = eval_latency;
          };
        o_evaluations = evaluations;
      }
