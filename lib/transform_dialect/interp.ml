open Ir
module T = Transforms
module S = Script

let count_ops root pred =
  let n = ref 0 in
  Core.walk root (fun op -> if pred op.Core.o_name then incr n);
  !n

(* Interchange of reduction loops assumes reassociation: mark the code
   fast-math so the machine model may vectorize reductions (Pluto
   configurations with [vectorize] elaborate to this step). *)
let interchange payload =
  let n = T.Interchange.vectorize_func payload in
  Core.walk payload (fun op ->
      if Core.is_func op then Core.set_attr op "fast_math" (Attr.Bool true));
  n

(* Delinearization rewrites a function's signature, so it runs once per
   function wherever the payload root sits. *)
let delinearize payload =
  let n = ref 0 in
  Core.walk payload (fun op ->
      if Core.is_func op then n := !n + T.Delinearize.run op);
  !n

(* The applier of one decoded step: it runs once per script compilation,
   so a raising set is looked up (built on first use process-wide) here,
   not per application. Each applier returns its application count
   (0 = inapplicable). *)
let applier ~loc : S.step -> Core.op -> int = function
  | S.Tile sizes -> fun payload -> T.Loop_tile.tile_nests payload ~sizes
  | S.Interchange -> interchange
  | S.Fuse h -> T.Loop_fuse.run h
  | S.Unroll factor ->
      fun payload -> T.Loop_unroll.unroll_innermost payload ~factor
  | S.Lower_affine ->
      fun payload ->
        let n = List.length (Affine.Loops.all_loops payload) in
        T.Lower_affine.run payload;
        n
  | S.Lower_linalg tile_size ->
      fun payload ->
        let n = count_ops payload (String.starts_with ~prefix:"linalg.") in
        (match tile_size with
        | Some size -> T.Lower_linalg.run_tiled ~size payload
        | None -> T.Lower_linalg.run payload);
        n
  | S.Blis_schedule blocking ->
      fun payload ->
        let n = count_ops payload (String.equal "affine.matmul") in
        T.Blis_schedule.run ~blocking payload;
        n
  | S.Raise "linalg" ->
      let frozen = T.Tactics.linalg_set () in
      fun payload -> Rewriter.apply_greedily payload frozen
  | S.Raise "affine-matmul" ->
      let frozen = T.Tactics.affine_matmul_set () in
      fun payload -> Rewriter.apply_greedily payload frozen
  | S.Raise "affine" -> T.Raise_scf.run
  | S.Raise other ->
      Support.Diag.errorf ~loc "transform.raise: unknown set %S" other
  | S.Canonicalize fast_math -> T.Canonicalize.run ~fast_math
  | S.Delinearize -> delinearize
  | S.Dce -> T.Dce.run
  | S.Reorder_chains -> T.Raise_chain.reorder
  | S.To_blas -> T.To_blas.run

type compiled = {
  c_name : string;
  c_loc : Support.Loc.t;
  c_apply : Core.op -> int;
}

let compile script =
  let steps = S.steps_of script in
  List.map2
    (fun (op : Core.op) step ->
      let loc = op.Core.o_loc in
      { c_name = S.step_name step; c_loc = loc; c_apply = applier ~loc step })
    (Core.ops_of_block (Core.module_block script))
    steps

let compile_steps steps = compile (S.of_steps steps)

(* The payload's own location or its nearest located ancestor's, else
   its first located op's: a function built in memory has none. *)
let payload_loc payload =
  let loc = ref (Core.nearest_loc payload) in
  (if not (Support.Loc.is_known !loc) then
     try
       Core.walk payload (fun op ->
           if Support.Loc.is_known op.Core.o_loc then begin
             loc := op.Core.o_loc;
             raise Exit
           end)
     with Exit -> ());
  !loc

(* A step error with no position is re-raised at the payload's
   location, as [Verifier] locates a dialect hook's error; [named]
   prefixes the step's name, which a pass manager adds itself. *)
let run_step ~named c payload =
  Trace.span ~cat:"transform" c.c_name (fun () ->
      let n =
        try c.c_apply payload
        with Support.Diag.Error (loc, msg) when not (Support.Loc.is_known loc)
          ->
          let loc = payload_loc payload in
          if named then Support.Diag.errorf ~loc "%s: %s" c.c_name msg
          else Support.Diag.error ~loc msg
      in
      if n = 0 && Remark.enabled () then
        Remark.remark ~loc:c.c_loc ~context:"transform" Remark.Analysis
          "%s did not apply: no matching construct in the payload" c.c_name;
      n)

let apply_step c payload = run_step ~named:true c payload

let pass_of_compiled c =
  Pass.make ~name:c.c_name (fun payload ->
      ignore (run_step ~named:false c payload))

let passes_of_steps steps = List.map pass_of_compiled (compile_steps steps)
