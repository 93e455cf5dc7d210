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

(* ---- deterministic subsampling ------------------------------------------- *)

(* Partial Fisher-Yates over indices 1..n-1 driven by a fixed LCG; slot 0
   (the baseline schedule) always survives, and the chosen indices are
   re-sorted so candidate order — and with it the first-strict-minimum
   tie-break — is preserved. *)
let subsample ~seed ~limit candidates =
  let arr = Array.of_list candidates in
  let n = Array.length arr in
  if limit >= n || limit < 1 then candidates
  else begin
    let state = ref ((seed * 2654435761 + 12345) land 0x3FFFFFFF) in
    let next m =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod m
    in
    let idx = Array.init n (fun i -> i) in
    for i = 1 to min (limit - 1) (n - 2) do
      let j = i + next (n - i) in
      let t = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- t
    done;
    let chosen = Array.sub idx 0 limit in
    Array.sort compare chosen;
    Array.to_list (Array.map (fun i -> arr.(i)) chosen)
  end

(* ---- the search ----------------------------------------------------------- *)

let sole_func m =
  match List.filter Core.is_func (Core.ops_of_block (Core.module_block m)) with
  | [ f ] -> f
  | fs -> D.errorf "tune: expected one kernel, found %d" (List.length fs)

let m_eval_seconds =
  lazy
    (Metrics.histogram ~help:"tuner candidate-evaluation wall-clock"
       "mlt_tune_eval_seconds")

let search ?(domains = 1) ?(seed = 0) ?limit ~machine ~translate candidates =
  let candidates =
    match limit with
    | Some l -> subsample ~seed ~limit:l candidates
    | None -> candidates
  in
  let cands = Array.of_list candidates in
  let n = Array.length cands in
  if n = 0 then D.errorf "tune: empty candidate space";
  (* Resolve every script on the calling domain: step resolution may
     freeze pattern sets, and frozen sets are the shareable form
     (docs/CONCURRENCY.md). Workers only read the closures. *)
  let compiled = Array.map (fun c -> Interp.compile_steps c.c_steps) cands in
  let results : (Machine.Perf.report option * string option) array =
    Array.make n (None, None)
  in
  (* Wall-clock cost of evaluating each candidate — the tuner's own
     latency, distinct from the modelled seconds it scores. Each slot is
     written by exactly one worker; the pool's joins publish them. *)
  let walls = Array.make n 0. in
  let eval_seconds = Lazy.force m_eval_seconds in
  let eval ~worker:_ i =
    let t0 = Unix.gettimeofday () in
    (match
       let m = translate () in
       let f = sole_func m in
       List.iter (fun c -> ignore (Interp.apply_step c f)) compiled.(i);
       Verifier.verify m;
       Machine.Perf.time_func machine f
     with
    | report -> results.(i) <- (Some report, None)
    | exception D.Error (loc, msg) ->
        results.(i) <- (None, Some (D.to_string loc msg))
    | exception exn -> results.(i) <- (None, Some (Printexc.to_string exn)));
    let w = Unix.gettimeofday () -. t0 in
    walls.(i) <- w;
    Metrics.observe eval_seconds w
  in
  Trace.span ~cat:"driver" "tune-search" (fun () ->
      Support.Pool.run ~domains n eval);
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
            t_best_seconds = report.Machine.Perf.seconds;
            t_eval_latency = eval_latency;
          };
        o_evaluations = evaluations;
      }
