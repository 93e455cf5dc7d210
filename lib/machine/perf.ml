(* Alias the sibling simulation-trace module before [open Ir]: [Ir] now
   exports its own [Trace] (the event-tracing layer), which would shadow
   ours. *)
module Sim_trace = Trace
open Ir
module D = Support.Diag
module M = Machine_model

type report = {
  seconds : float;
  loop_seconds : float;
  library_seconds : float;
  stats : Sim_trace.stats;
}

let library_time model (op : Core.op) =
  let loc = Core.nearest_loc op in
  let elements () =
    match Typ.num_elements (Core.operand op 0).Core.v_typ with
    | Some e -> e
    | None -> D.errorf ~loc "perf: dynamic %s" op.o_name
  in
  match op.o_name with
  | "blas.sgemm" ->
      let d = Structured.dims op in
      Blas_model.gemm_seconds model ~m:d.(0) ~n:d.(1) ~k:d.(2)
  | "blas.sgemv" ->
      let d = Structured.dims op in
      Blas_model.gemv_seconds model ~m:d.(0) ~n:d.(1)
  | "blas.stranspose" -> Blas_model.transpose_seconds model ~elems:(elements ())
  | "blas.sreshape_copy" -> Blas_model.copy_seconds model ~elems:(elements ())
  | "blas.sconv2d" ->
      let d = Structured.dims op in
      Blas_model.conv2d_seconds model ~n:d.(0) ~f:d.(1) ~oh:d.(2) ~ow:d.(3)
        ~c:d.(4) ~kh:d.(5) ~kw:d.(6)
  | "affine.matmul" ->
      let d = Structured.dims op in
      Blas_model.blis_codegen_gemm_seconds model ~m:d.(0) ~n:d.(1) ~k:d.(2)
  | _ -> D.errorf ~loc "perf: '%s' is not a library call" op.o_name

let is_library (op : Core.op) =
  Blas.Blas_ops.is_blas op || Affine.Affine_ops.is_matmul op

(* Each domain keeps the hierarchies it built, one per cache geometry,
   and resets one instead of allocating it again: the Intel model's
   16 MB L3 alone is 2 MB of tags. A reset hierarchy is in
   [create]'s state, so reuse changes no report. *)
let hierarchies = Domain.DLS.new_key (fun () -> ref [])

let hierarchy (m : M.t) =
  let geometry =
    ( (m.M.line, m.M.l1_size, m.M.l1_ways),
      (m.M.l2_size, m.M.l2_ways),
      (m.M.l3_size, m.M.l3_ways) )
  in
  let cell = Domain.DLS.get hierarchies in
  match List.assoc_opt geometry !cell with
  | Some h ->
      Cache.reset_hierarchy h;
      h
  | None ->
      let h = M.fresh_hierarchy m in
      cell := (geometry, h) :: !cell;
      h

let m_accesses =
  Support.Once.make (fun () ->
      Metrics.counter ~help:"logical accesses simulated by Perf.time_func"
        "mlt_sim_accesses")

let m_l1_probes =
  Support.Once.make (fun () ->
      Metrics.counter ~help:"L1 probes that actually ran (Cache.probes)"
        "mlt_sim_l1_probes")

let m_replayed =
  Support.Once.make (fun () ->
      Metrics.counter
        ~help:
          "accesses replayed from a recorded outcome without a probe \
           (Cache.replay, Cache.replay_movers)"
        "mlt_sim_replayed_accesses")

let time_func model func =
  if not (Core.is_func func) then invalid_arg "Perf.time_func";
  Core.walk func (fun op ->
      if Linalg.Linalg_ops.is_linalg op then
        D.errorf ~loc:(Core.nearest_loc op)
          "perf: found %s — lower Linalg ops to loops or convert them to \
           library calls before timing"
          op.Core.o_name);
  let addrs = Sim_trace.assign_addresses func in
  let hier = hierarchy model in
  let stats = Sim_trace.empty_stats () in
  let fast_math =
    match Core.find_attr func "fast_math" with
    | Some (Attr.Bool b) -> b
    | _ -> false
  in
  let library_seconds = ref 0. in
  (* Group maximal runs of trace-simulable ops so the cache stays warm
     across adjacent loop nests; library calls are timed analytically. *)
  let pending = ref [] in
  let flush () =
    if !pending <> [] then begin
      Sim_trace.simulate ~fast_math model hier addrs stats (List.rev !pending);
      pending := []
    end
  in
  List.iter
    (fun (op : Core.op) ->
      if is_library op then begin
        flush ();
        library_seconds := !library_seconds +. library_time model op
      end
      else
        match op.o_name with
        | "func.return" | "memref.alloc" | "memref.dealloc" -> ()
        | _ -> pending := op :: !pending)
    (Core.ops_of_block (Core.func_entry func));
  flush ();
  if Metrics.enabled () then begin
    let l1 = Cache.l1 hier in
    Metrics.add (Support.Once.get m_accesses)
      (int_of_float stats.Sim_trace.accesses);
    Metrics.add (Support.Once.get m_l1_probes) (Cache.probes l1);
    Metrics.add (Support.Once.get m_replayed) (Cache.replayed l1)
  end;
  let compute_cycles =
    (stats.Sim_trace.flops_scalar /. model.M.scalar_flops_per_cycle)
    +. (stats.Sim_trace.flops_vector /. model.M.vector_flops_per_cycle)
  in
  let cycles =
    Float.max compute_cycles stats.Sim_trace.mem_cycles
    +. (stats.Sim_trace.iterations *. model.M.loop_overhead_cycles)
  in
  let loop_seconds = M.seconds_of_cycles model cycles in
  {
    seconds = loop_seconds +. !library_seconds;
    loop_seconds;
    library_seconds = !library_seconds;
    stats;
  }

let gflops ~flops report = flops /. report.seconds /. 1e9
