(** The IR interpreter: executes functions at any abstraction level (affine
    loops, scf loops, Linalg named ops, BLAS calls) over real float buffers.

    This is the reproduction's semantic ground truth: every raising or
    lowering path is validated by checking that the transformed function
    computes the same buffers as the original (the paper relies on MLIR's
    verifier and testing for this).

    Functions run on the staged engine ({!Compile}): each call compiles
    the function once into nested closures over slot-indexed register
    frames, with op dispatch, affine maps, loop bounds and memory-access
    offsets resolved at compile time, then executes it. Failures raise a
    {!Support.Diag.Error} located at the offending op (see {!Rt}). The
    tests compare it bit for bit with a tree-walking reference
    interpreter, test/ref_interp.ml. *)

(** The one engine. [engine] and {!default_engine} are read only by the
    benchmark driver, which checks that the compiled engine runs; both go
    with the next benchmark change. *)
type engine = Compiled

val default_engine : engine ref

(** [run_func f args] executes a [func.func]; [args] provides one buffer
    per memref argument (mutated in place). *)
val run_func : Ir.Core.op -> Buffer.t list -> unit

(** [run m name args] — look up and run a function of a module. *)
val run : Ir.Core.op -> string -> Buffer.t list -> unit

(** [run_on_random m name ~seed] — convenience for tests: allocate
    buffers per the function signature, fill argument [i] with
    reproducible random data drawn from [seed + i], run, and return the
    buffers. *)
val run_on_random : Ir.Core.op -> string -> seed:int -> Buffer.t list

(** [equivalent m1 m2 name ~seed] — run the same-named function of two
    modules on identical random inputs; [true] when both return as many
    buffers and each pair is {!Buffer.approx_equal} [?eps]. The battery
    ({!run_on_random}'s, argument [i] drawn from [seed + i]) is drawn
    once, for [m1]'s function; when [m2]'s takes arguments of the same
    types, it runs on a {!Buffer.copy} of that battery taken before
    either runs. Otherwise [m2]'s own battery is drawn after [m1]'s run,
    and differing signatures answer [false]. *)
val equivalent :
  ?eps:float -> Ir.Core.op -> Ir.Core.op -> string -> seed:int -> bool
