(** Whole-function performance simulation: affine loop code goes through
    the trace-driven cache simulation, vendor-library calls through the
    analytical model, and [affine.matmul] through the BLIS-codegen model
    (§5.1). The timing combines a compute term (scalar/vector issue), a
    memory term (miss latencies) and per-iteration loop overhead:

    [cycles = max(compute, memory) + iterations * loop_overhead]. *)

(* No [open Ir] here: [Ir.Trace] (the event-tracing layer) would shadow
   the sibling simulation-trace module this interface refers to. *)

type report = {
  seconds : float;
  loop_seconds : float;  (** trace-simulated loop time *)
  library_seconds : float;  (** modelled library calls *)
  stats : Trace.stats;
}

(** [time_func model func] — raises {!Support.Diag.Error}, located at the
    offending op, if the function still contains Linalg ops (lower or
    convert them first) or anything else it cannot simulate. Each domain
    reuses one cache hierarchy per geometry, reset before every call, so
    the report is the one a fresh hierarchy gives. *)
val time_func : Machine_model.t -> Ir.Core.op -> report

(** [gflops ~flops report] *)
val gflops : flops:float -> report -> float
