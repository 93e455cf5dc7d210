(* The schedule autotuner: winner identical (down to IR bytes) to the
   legacy sequential Pluto sweep, deterministic across domain counts,
   and never worse than the pluto-default baseline on the gemm
   search space. *)

open Ir
module T = Transforms
module M = Machine
module W = Workloads.Polybench
module Script = Transform.Script

let machine = M.Machine_model.amd_2920x

let src = W.mm ~ni:16 ~nj:16 ~nk:16 ()

let translate () = Met.Emit_affine.translate src

let sole_func m =
  List.find Core.is_func (Core.ops_of_block (Core.module_block m))

let max_trip = 16

(* The sequential sweep Mlt.Pipeline ran before the tuner existed,
   inlined verbatim: first strict minimum over sweep_configs order. *)
let legacy_sweep () =
  let best =
    List.fold_left
      (fun best cfg ->
        let m = translate () in
        let f = sole_func m in
        Ref_pluto.apply cfg f;
        Verifier.verify m;
        let report = M.Perf.time_func machine f in
        match best with
        | Some (_, _, (b : M.Perf.report))
          when b.M.Perf.seconds <= report.M.Perf.seconds ->
            best
        | _ -> Some (cfg, m, report))
      None
      (T.Pluto.sweep_configs ~max_trip)
  in
  Option.get best

let test_winner_matches_legacy_sweep () =
  let cfg, legacy_ir, legacy_report = legacy_sweep () in
  let outcome =
    Tune.search ~domains:1 ~machine ~translate (Tune.pluto_space ~max_trip)
  in
  Alcotest.(check string) "same winning configuration"
    ("pluto-" ^ T.Pluto.config_to_string cfg)
    outcome.Tune.o_best.Tune.c_name;
  Alcotest.(check (float 0.)) "same modelled seconds"
    legacy_report.M.Perf.seconds
    outcome.Tune.o_best_report.M.Perf.seconds;
  (* Replaying the winning script must reproduce the sweep's IR bytes. *)
  let replay = translate () in
  List.iter
    (fun c -> ignore (Transform.Interp.apply_step c (sole_func replay)))
    (Transform.Interp.compile_steps outcome.Tune.o_best.Tune.c_steps);
  Alcotest.(check string) "winning IR byte-identical"
    (Printer.op_to_string legacy_ir)
    (Printer.op_to_string replay)

let test_deterministic_across_domains () =
  let outcomes =
    List.map
      (fun domains ->
        Tune.search ~domains ~machine ~translate (Tune.pluto_space ~max_trip))
      [ 1; 2; 4; 7 ]
  in
  match outcomes with
  | first :: rest ->
      List.iter
        (fun (o : Tune.outcome) ->
          Alcotest.(check int) "same winner index" first.Tune.o_best_index
            o.Tune.o_best_index;
          Alcotest.(check string) "same winner name"
            first.Tune.o_best.Tune.c_name o.Tune.o_best.Tune.c_name;
          Alcotest.(check (float 0.)) "same seconds"
            first.Tune.o_stats.Tune.t_best_seconds
            o.Tune.o_stats.Tune.t_best_seconds)
        rest
  | [] -> assert false

let test_gemm_space_beats_default () =
  let outcome =
    Tune.search ~domains:2 ~machine ~translate
      (Tune.gemm_space ~max_trip ())
  in
  let default_seconds =
    (fst
       (Mlt.Pipeline.time_schedule_ext
          (Mlt.Pipeline.Config Mlt.Pipeline.Pluto_default) machine src))
      .M.Perf.seconds
  in
  Alcotest.(check bool) "tuned never worse than pluto-default" true
    (outcome.Tune.o_stats.Tune.t_best_seconds <= default_seconds +. 1e-12)

let test_failing_candidates_lose_not_abort () =
  (* A candidate that stops at the Linalg level cannot be timed (the
     machine model only times affine loops and library calls): it must
     lose with its error recorded, not crash the search. It applies and
     verifies, so it is simulated. [Unroll 2] leaves a step-2 loop that
     [Tile [4]] rejects, so the two "unroll-tile" candidates fail to
     apply: they are neither keyed nor simulated, so they never group
     with each other or represent a group. "baseline-again" prints like
     "baseline" and takes its report without a simulation. *)
  let unroll_tile = [ Script.Unroll 2; Script.Tile [ 4 ] ] in
  let space =
    [
      { Tune.c_name = "unroll-tile"; c_steps = unroll_tile };
      { Tune.c_name = "baseline"; c_steps = [] };
      {
        Tune.c_name = "broken";
        c_steps = [ Script.Canonicalize false; Script.Raise "linalg" ];
      };
      { Tune.c_name = "unroll-tile-again"; c_steps = unroll_tile };
      { Tune.c_name = "baseline-again"; c_steps = [ Script.Dce ] };
    ]
  in
  let outcome = Tune.search ~domains:2 ~machine ~translate space in
  let st = outcome.Tune.o_stats in
  Alcotest.(check int) "every candidate recorded" 5 st.Tune.t_candidates;
  Alcotest.(check int) "evaluated (the copy counts)" 2 st.Tune.t_evaluated;
  Alcotest.(check int) "simulated: baseline and broken only" 2
    st.Tune.t_simulated;
  Alcotest.(check int) "the baseline wins, not its copy" 1
    outcome.Tune.o_best_index;
  let error name =
    (List.find
       (fun (ev : Tune.evaluation) -> ev.Tune.ev_candidate.Tune.c_name = name)
       outcome.Tune.o_evaluations)
      .Tune.ev_error
  in
  let fails_with name part =
    match error name with
    | Some e ->
        Alcotest.(check bool) (name ^ " fails with " ^ part) true
          (Astring_contains.contains e part)
    | None -> Alcotest.failf "%s should carry its error" name
  in
  fails_with "unroll-tile" "tile:";
  fails_with "unroll-tile-again" "tile:";
  fails_with "broken" "perf:";
  Alcotest.(check bool) "the copy carries no error" true
    (error "baseline-again" = None)

(* ---- dedupe -------------------------------------------------------------- *)

let pluto_search ?(domains = 1) src =
  let translate () = Met.Emit_affine.translate src in
  let max_trip = Tune.max_trip_count (sole_func (translate ())) in
  let space = Tune.pluto_space ~max_trip in
  (space, translate, Tune.search ~domains ~machine ~translate space)

(* One candidate's transformed function, built outside the tuner. *)
let transformed translate (c : Tune.candidate) =
  let m = translate () in
  let f = sole_func m in
  List.iter
    (fun s -> ignore (Transform.Interp.apply_step s f))
    (Transform.Interp.compile_steps c.Tune.c_steps);
  Verifier.verify m;
  f

let fast_math f =
  match Core.find_attr f "fast_math" with
  | Some (Attr.Bool b) -> b
  | _ -> false

let distinct xs = List.length (List.sort_uniq compare xs)

let test_dedupe_is_exact () =
  let src = W.atax ~m:64 ~n:64 () in
  let space, translate, outcome = pluto_search src in
  let funcs = List.map (transformed translate) space in
  let printed = List.map Printer.op_to_string funcs in
  Alcotest.(check int) "candidates" 25 (List.length space);
  Alcotest.(check int) "groups by printed IR alone" 6 (distinct printed);
  Alcotest.(check int) "groups with the function's attributes" 12
    (distinct (List.map2 (fun p f -> (p, f.Core.o_attrs)) printed funcs));
  Alcotest.(check int) "one simulation per group" 12
    outcome.Tune.o_stats.Tune.t_simulated;
  let seconds =
    List.map
      (fun (ev : Tune.evaluation) -> Option.get ev.Tune.ev_seconds)
      outcome.Tune.o_evaluations
  in
  List.iter2
    (fun f s ->
      Alcotest.(check int64) "bit-equal to a direct simulation"
        (Int64.bits_of_float (M.Perf.time_func machine f).M.Perf.seconds)
        (Int64.bits_of_float s))
    funcs seconds;
  (* The trap a key on printed IR alone falls into: equal text, a
     different fast_math mark, a different modelled time. *)
  let rows = List.combine (List.combine printed funcs) seconds in
  let trap =
    List.exists
      (fun ((p, f), s) ->
        List.exists
          (fun ((p', f'), s') ->
            String.equal p p' && fast_math f <> fast_math f' && s <> s')
          rows)
      rows
  in
  Alcotest.(check bool) "a printed-equal pair differs in fast_math and time"
    true trap;
  let _, _, two = pluto_search ~domains:2 src in
  Alcotest.(check string) "same winner on 2 domains"
    outcome.Tune.o_best.Tune.c_name two.Tune.o_best.Tune.c_name;
  Alcotest.(check int) "same winner index on 2 domains"
    outcome.Tune.o_best_index two.Tune.o_best_index;
  Alcotest.(check bool) "same winning report on 2 domains" true
    (outcome.Tune.o_best_report = two.Tune.o_best_report)

let test_simulated_counts () =
  List.iter
    (fun (name, src, simulated) ->
      let _, _, o = pluto_search src in
      let st = o.Tune.o_stats in
      Alcotest.(check (pair int int))
        (name ^ " candidates / evaluated")
        (25, 25)
        (st.Tune.t_candidates, st.Tune.t_evaluated);
      Alcotest.(check int) (name ^ " simulated") simulated st.Tune.t_simulated)
    [
      ("atax", W.atax ~m:64 ~n:64 (), 12);
      ("gesummv", W.gesummv ~n:64 (), 10);
      ("mvt", W.mvt ~n:64 (), 17);
      ("gemver", W.gemver ~n:64 (), 9);
    ];
  (* The Figure-9 cell, through the pipeline's pluto-best path. *)
  let _, src, _ =
    List.find (fun (k, _, _) -> k = "gesummv") (W.figure9_suite ())
  in
  match
    Mlt.Pipeline.time_schedule_ext (Mlt.Pipeline.Config Mlt.Pipeline.Pluto_best)
      machine src
  with
  | _, Some st ->
      Alcotest.(check (list int)) "Figure-9 gesummv: candidates, evaluated, \
                                    simulated"
        [ 37; 37; 14 ]
        [ st.Tune.t_candidates; st.Tune.t_evaluated; st.Tune.t_simulated ]
  | _, None -> Alcotest.fail "Pluto_best should return tuner stats"

let test_pluto_best_pipeline_uses_tuner () =
  (* Config Pluto_best must report the same winner the tuner finds, and
     surface the search stats through time_schedule_ext. *)
  let report, stats =
    Mlt.Pipeline.time_schedule_ext
      (Mlt.Pipeline.Config Mlt.Pipeline.Pluto_best)
      machine src
  in
  let _, _, legacy_report = legacy_sweep () in
  Alcotest.(check (float 0.)) "pluto-best = legacy sweep winner"
    legacy_report.M.Perf.seconds report.M.Perf.seconds;
  match stats with
  | Some st ->
      Alcotest.(check int) "stats cover the whole sweep"
        (List.length (T.Pluto.sweep_configs ~max_trip:16))
        st.Tune.t_candidates;
      Alcotest.(check (float 0.)) "stats carry the winning seconds"
        report.M.Perf.seconds st.Tune.t_best_seconds
  | None -> Alcotest.fail "Pluto_best should return tuner stats"

let test_pluto_best_resolves_to_winner () =
  (* mlt-sim resolves pluto-best once, then checks, executes and times
     the result: that must be the search's winning script, not the
     pluto-default elaboration [Config Pluto_best] prepares without a
     machine. On mm 16 the winner (tile=1,nofuse,vec) is not the
     default, so the two schedules are different programs. *)
  let module P = Mlt.Pipeline in
  let _, _, o = pluto_search src in
  let schedule, outcome =
    P.resolve_schedule machine src (P.Config P.Pluto_best)
  in
  let print steps = Script.print (Script.of_steps steps) in
  Alcotest.(check string) "named pluto-best" "pluto-best"
    (P.schedule_name schedule);
  Alcotest.(check string) "the winner's steps"
    (print o.Tune.o_best.Tune.c_steps)
    (print (P.schedule_steps schedule));
  Alcotest.(check bool) "the winner is not pluto-default" false
    (print (P.schedule_steps schedule)
    = print (P.steps_of_config P.Pluto_default));
  (match outcome with
  | Some r ->
      Alcotest.(check string) "the outcome is the search's"
        o.Tune.o_best.Tune.c_name r.Tune.o_best.Tune.c_name
  | None -> Alcotest.fail "Pluto_best should return its search outcome");
  let prepared s = Printer.op_to_string (sole_func (P.prepare_schedule s src)) in
  let winner_ir = prepared schedule in
  Alcotest.(check string) "prepares the winner's IR"
    (Printer.op_to_string (transformed translate o.Tune.o_best))
    winner_ir;
  Alcotest.(check bool) "not pluto-default's IR" false
    (String.equal winner_ir (prepared (P.Config P.Pluto_best)));
  Alcotest.(check bool) "--verify-exec's check passes on the winner" true
    (P.check_schedule_semantics schedule src);
  (* Every other schedule resolves to itself, with no search. *)
  (match P.resolve_schedule machine src (P.Config P.Pluto_default) with
  | P.Config P.Pluto_default, None -> ()
  | _ -> Alcotest.fail "pluto-default must resolve to itself");
  (* With a manager, time_schedule_ext records the winner's passes. *)
  let pm = Pass.create_manager () in
  ignore (P.time_schedule_ext ~pm (P.Config P.Pluto_best) machine src);
  Alcotest.(check (list string)) "pass stats describe the winner"
    (List.map Script.step_name o.Tune.o_best.Tune.c_steps)
    (List.map (fun (t : Pass.timing) -> t.Pass.pass_name) (Pass.timings pm))

let suite =
  [
    Alcotest.test_case "winner byte-identical to the legacy Pluto sweep"
      `Quick test_winner_matches_legacy_sweep;
    Alcotest.test_case "winner independent of the domain count" `Quick
      test_deterministic_across_domains;
    Alcotest.test_case "gemm space never loses to pluto-default" `Quick
      test_gemm_space_beats_default;
    Alcotest.test_case "failing candidates lose instead of aborting" `Quick
      test_failing_candidates_lose_not_abort;
    Alcotest.test_case "Pluto_best routes through the tuner" `Quick
      test_pluto_best_pipeline_uses_tuner;
    Alcotest.test_case "Pluto_best resolves to the winning script" `Quick
      test_pluto_best_resolves_to_winner;
    Alcotest.test_case "dedupe is exact, fast-math included" `Quick
      test_dedupe_is_exact;
    Alcotest.test_case "simulation counts per kernel" `Quick
      test_simulated_counts;
  ]
