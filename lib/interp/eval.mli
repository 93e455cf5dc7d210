(** The IR interpreter: executes functions at any abstraction level (affine
    loops, scf loops, Linalg named ops, BLAS calls) over real float buffers.

    This is the reproduction's semantic ground truth: every raising or
    lowering path is validated by checking that the transformed function
    computes the same buffers as the original (the paper relies on MLIR's
    verifier and testing for this).

    Two execution engines share one op semantics:

    - [Walk] — the simple tree-walking oracle (hash-table environment,
      per-op string dispatch). Intentionally simple; kept as the reference
      implementation. No program runs it: the differential tests
      (test/test_interp_compile.ml's "engines agree" cases, every
      kernel at the affine, SCF and Linalg levels) compare it with
      [Compiled].
    - [Compiled] — the staged engine ({!Compile}): the function is compiled
      once into nested closures over slot-indexed register frames, with
      op dispatch, affine maps, loop bounds and memory-access offsets all
      resolved at compile time. Default, roughly an order of magnitude
      faster on loop-level IR.

    Entry points take [?engine] (default {!default_engine}, initially
    [Compiled]); differential tests pin both engines explicitly and compare
    buffers bit-for-bit. Both engines fail with a {!Support.Diag.Error}
    located at the offending op (see {!Rt}). *)

(** Re-export of {!Rt.engine} so callers can say [Interp.Eval.Walk]. *)
type engine = Rt.engine = Walk | Compiled

(** Process-wide default engine, [Compiled] initially. No CLI flag
    changes it; callers that want the oracle pass [~engine:Walk]. *)
val default_engine : engine ref

(** [run_func f args] executes a [func.func]; [args] provides one buffer
    per memref argument (mutated in place). *)
val run_func : ?engine:engine -> Ir.Core.op -> Buffer.t list -> unit

(** [run m name args] — look up and run a function of a module. *)
val run : ?engine:engine -> Ir.Core.op -> string -> Buffer.t list -> unit

(** [run_on_random m name ~seed shapes] — convenience for tests: allocate
    buffers per the function signature, fill them with reproducible random
    data, run, and return the buffers. *)
val run_on_random :
  ?engine:engine -> Ir.Core.op -> string -> seed:int -> Buffer.t list

(** [equivalent m1 m2 name ~seed] — run the same-named function of two
    modules on identical random inputs; [true] when both return as many
    buffers and each pair is {!Buffer.approx_equal} [?eps]. The battery
    ({!run_on_random}'s, argument [i] drawn from [seed + i]) is drawn
    once, for [m1]'s function; when [m2]'s takes arguments of the same
    types, it runs on a {!Buffer.copy} of that battery taken before
    either runs. Otherwise [m2]'s own battery is drawn after [m1]'s run,
    and differing signatures answer [false]. *)
val equivalent :
  ?eps:float ->
  ?engine:engine ->
  Ir.Core.op ->
  Ir.Core.op ->
  string ->
  seed:int ->
  bool
