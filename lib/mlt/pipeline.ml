open Ir
module T = Transforms
module M = Machine
module Script = Transform.Script

type config =
  | Clang_O3
  | Pluto_default
  | Pluto_best
  | Mlt_linalg
  | Mlt_blas
  | Mlt_affine_blis

let config_name = function
  | Clang_O3 -> "clang-O3"
  | Pluto_default -> "pluto-default"
  | Pluto_best -> "pluto-best"
  | Mlt_linalg -> "mlt-linalg"
  | Mlt_blas -> "mlt-blas"
  | Mlt_affine_blis -> "mlt-affine-blis"

let all_configs =
  [ Clang_O3; Pluto_default; Pluto_best; Mlt_linalg; Mlt_blas; Mlt_affine_blis ]

let config_of_name name =
  List.find_opt (fun c -> String.equal (config_name c) name) all_configs

let all_figure9_configs =
  [ Clang_O3; Pluto_default; Pluto_best; Mlt_linalg; Mlt_blas ]

(* Dialects register at module initialisation; see pipeline.mli for why
   the stub stays. *)
let register_dialects () = ()

let sole_func m =
  match List.filter Core.is_func (Core.ops_of_block (Core.module_block m)) with
  | [ f ] -> f
  | fs ->
      Support.Diag.errorf "pipeline: expected one kernel, found %d"
        (List.length fs)

let translate ?file src = Met.Emit_affine.translate ?file src

(* A schedule keeps the set of accesses a program makes, so an access
   proven out of bounds in the input is rejected once, before any. *)
let translate_checked ?file src =
  let m = translate ?file src in
  Affine.Bounds.check_func (sole_func m);
  m

(* The Linalg default path primarily performs tiling (§5.2, footnote 2). *)
let linalg_tile_size = 32

(* ---- configs as transform scripts ---------------------------------------- *)

(* Each variant elaborates to a script; test_transform_dialect pins the
   digest of the IR each one prints on mm and 2mm. *)
let steps_of_config = function
  | Clang_O3 -> []
  | Pluto_default | Pluto_best ->
      (* Without a machine model Pluto_best keeps the default;
         [resolve_schedule] replaces it with the sweep's winner. *)
      Script.of_pluto T.Pluto.default_config
  | Mlt_linalg ->
      [
        Script.Canonicalize false;
        Script.Raise "linalg";
        Script.Lower_linalg (Some linalg_tile_size);
      ]
  | Mlt_blas ->
      [
        Script.Canonicalize false;
        Script.Raise "linalg";
        Script.Reorder_chains;
        Script.To_blas;
        (* Leftover fills have no library call; lower them to loops. *)
        Script.Lower_linalg None;
      ]
  | Mlt_affine_blis ->
      [ Script.Canonicalize false; Script.Raise "affine-matmul" ]

(* ---- schedules ------------------------------------------------------------ *)

type schedule =
  | Config of config
  | Custom of { name : string; steps : Script.step list }

let print_steps steps = Script.print (Script.of_steps steps)

let schedule_of_steps ?name steps =
  let name =
    match name with
    | Some n -> n
    | None ->
        "script:" ^ String.sub (Support.Digest.string (print_steps steps)) 0 12
  in
  Custom { name; steps }

let schedule_of_script_text ?name ?file src =
  schedule_of_steps ?name (Script.parse_steps ?file src)

let schedule_name = function
  | Config c -> config_name c
  | Custom { name; _ } -> name

let schedule_steps = function
  | Config c -> steps_of_config c
  | Custom { steps; _ } -> steps

let passes_of_schedule s = Transform.Interp.passes_of_steps (schedule_steps s)

(* Bump whenever pipeline or pattern-set *behavior* changes in a way the
   printed script below cannot express (a tactic's rewrite changes, the
   printer's output format shifts): the version is part of every
   compilation-cache key, so stale artifacts from the previous behavior
   can never be served (docs/CACHE.md). The part after "+" names a
   retired representation; it stays so existing cache keys stay valid. *)
let cache_version = "mlt-pipeline-v2+intern-v1"

let schedule_cache_identity s =
  (* The printed transform script carries every transformation parameter
     (tile sizes, BLIS mc/nc/kc, fusion heuristic, ...), so two
     schedules with equal pass names but different parameters can never
     alias in the cache — the aliasing bug the pass-name identity of
     v1 had. *)
  Printf.sprintf "%s:%s" cache_version (print_steps (schedule_steps s))

(* ---- preparation ---------------------------------------------------------- *)

let prepare_schedule_module ?pm schedule m =
  let f = sole_func m in
  let mgr = match pm with Some pm -> pm | None -> Pass.create_manager () in
  Pass.add_all mgr (passes_of_schedule schedule);
  Pass.run mgr f;
  Verifier.verify m;
  m

let prepare_schedule ?pm ?file schedule src =
  prepare_schedule_module ?pm schedule (translate_checked ?file src)

(* ---- search and pluto-best ----------------------------------------------- *)

(* The one search from mini-C: size the space by the kernel's largest
   trip count, then score the candidates on the machine model, fanned
   out over Support.Pool. The tuner only clones the checked translation,
   so it serves as the search's one translation. *)
let search ?file ~space machine src =
  let m = translate_checked ?file src in
  let max_trip = Tune.max_trip_count (sole_func m) in
  let translate () = m in
  Tune.search
    ~domains:(Domain.recommended_domain_count ())
    ~machine ~translate (space ~max_trip)

(* Pluto-best is the first strict minimum of the Pluto sweep on the
   model — the stand-in for the paper's multi-day autotuning. Its winner
   and IR are byte-identical to the legacy sequential sweep's (asserted
   in test_tune). *)
let resolve_schedule ?file machine src = function
  | Config Pluto_best ->
      let o = search ?file ~space:Tune.pluto_space machine src in
      let steps = o.Tune.o_best.Tune.c_steps in
      (Custom { name = config_name Pluto_best; steps }, Some o)
  | s -> (s, None)

(* ---- simulated timing ----------------------------------------------------- *)

let time_schedule_ext ?pm ?file schedule machine src =
  match resolve_schedule ?file machine src schedule with
  | winner, Some o ->
      (* The search already timed the winner; only a caller's manager
         needs it prepared again, to record the winner's passes. *)
      Option.iter (fun pm -> ignore (prepare_schedule ~pm ?file winner src)) pm;
      (o.Tune.o_best_report, Some o.Tune.o_stats)
  | s, None ->
      let m = prepare_schedule ?pm ?file s src in
      (M.Perf.time_func machine (sole_func m), None)

(* ---- differential execution ----------------------------------------------- *)

(* One translation: the schedule runs on a clone of the reference, which
   prints as a fresh translation's would (test_mlt pins all 16 Figure-9
   kernels under every config). Once the reference is the undistributed
   emission (ROADMAP item 3), the two no longer start from the same IR:
   the schedule's copy must then come from a distributed emission of the
   same parse, not from this clone. *)
let check_schedule_semantics ?(seed = 0) ?eps ?file schedule src =
  let reference = translate_checked ?file src in
  let transformed = prepare_schedule_module schedule (Core.clone_op reference) in
  let name = Core.func_name (sole_func reference) in
  Interp.Eval.equivalent ?eps reference transformed name ~seed

(* ---- compile-time measurement (§5.2) -------------------------------------- *)

(* Canonicalize first so matching is measured on the same IR the
   [`With_mlt] raising step sees. *)
let match_steps = [ Script.Canonicalize false; Script.Raise "linalg" ]

let overhead_steps = function
  | `Match_only -> match_steps
  | `Baseline -> [ Script.Lower_affine ]
  | `With_mlt ->
      (* Common progressive lowering to the SCF level. *)
      match_steps @ [ Script.Lower_linalg None; Script.Lower_affine ]

let compile_time ?pm mode sources =
  let mgr = match pm with Some pm -> pm | None -> Pass.create_manager () in
  Pass.add_all mgr (Transform.Interp.passes_of_steps (overhead_steps mode));
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun src ->
      let m = translate src in
      Pass.run mgr (sole_func m);
      match mode with
      | `Match_only -> ()
      | `Baseline | `With_mlt -> Verifier.verify m)
    sources;
  Unix.gettimeofday () -. t0

let count_gemm_callsites ?(delinearize = false) src =
  let m = translate src in
  if delinearize then
    Core.walk m (fun op ->
        if Core.is_func op then ignore (T.Delinearize.run op));
  let pats = Tdl.Backend.compile_tdl Tdl.Frontend.gemm_tdl in
  Rewriter.apply_greedily m (Rewriter.freeze pats)
