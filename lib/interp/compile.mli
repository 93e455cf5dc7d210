(** The staged compile-to-closure execution engine.

    A verified [func.func] is compiled {e once} into nested OCaml closures:
    every SSA value gets a dense slot in a typed register frame (int /
    float / buffer arrays — no hash tables in the hot path), op dispatch is
    resolved at compile time (no per-iteration string matching), and
    affine bounds, [affine.apply] maps and access offsets are staged by
    {!Affine.Stage}, whose slot table owns the integer frame; the engine
    keeps the buffer reads and writes. Accesses that {!Affine.Bounds}
    proves in bounds are unchecked; the rest take a per-dimension checked
    path that fails an index out of its dimension with {!Rt.index_error}.
    A perfect [affine.for] nest whose innermost body is one
    multiply-accumulate statement or one copy ([store (load x), y]) over
    proven, linear accesses runs as a single native strided walk; a
    reshape copy's digit subscripts count as linear where
    {!Affine.Stage.strided} folds them. A Linalg, BLAS or
    [affine.matmul] contraction or transpose runs as its
    {!Linalg.Lowering} nest, built once at compile time on a detached
    block (the function is left as it was).

    This is the interpreter's one engine ({!Eval.run_func} runs it). The
    tests compare its buffers bit for bit with a tree-walking reference
    interpreter, test/ref_interp.ml. Compilation and runtime failures
    both raise a {!Support.Diag.Error} located at the offending op,
    prefixed ["interp: "] (see {!Rt}). *)

(** The typed register frame a compiled function executes against. *)
type frame = {
  ints : int array;
  floats : float array;
  bufs : Buffer.t array;
}

type code = frame -> unit

(** A compiled function. Closures capture frame {e slot indices}, not
    values, so one compiled function can be executed many times (each
    {!execute} allocates a fresh frame). *)
type compiled = {
  c_func : Ir.Core.op;  (** the source [func.func] *)
  c_arg_slots : int array;  (** buffer slots of the function arguments *)
  c_n_ints : int;  (** integer register-frame size *)
  c_n_floats : int;  (** float register-frame size *)
  c_n_bufs : int;  (** buffer register-frame size *)
  c_checked_accesses : int;
      (** memory accesses that could {e not} be proven in bounds and use
          the checked fallback (introspection for tests and the bench) *)
  c_unchecked_accesses : int;
      (** accesses statically proven in bounds: a single unchecked
          linear-offset read/write (fused loops' four included) *)
  c_fused_loops : int;
      (** perfect [affine.for] nests staged as one native
          multiply-accumulate walk ([s = c + a * b] innermost, all four
          accesses proven in bounds and linear); one per statement,
          library contractions' lowered nests included *)
  c_fused_levels : int;
      (** the loop levels of those nests, summed (a lone innermost loop
          counts 1) *)
  c_copy_loops : int;
      (** perfect [affine.for] nests staged as one native copy walk
          ([store (load x), y] innermost, both accesses proven in bounds
          and linear, reshape digits folded) *)
  c_body : code;
}

(** [compile_func f] stages [f] ([func.func] with buffer arguments).
    Raises {!Support.Diag.Error} on unsupported constructs (iter_args
    loops, unknown ops, maps {!Affine.Stage} rejects, dynamic shapes) —
    eagerly, at compile time, located at the op. *)
val compile_func : Ir.Core.op -> compiled

(** [execute c args] validates [args] against the source function and runs
    the compiled body over them (results are written into the argument
    buffers, as in {!Eval.run_func}). *)
val execute : compiled -> Buffer.t list -> unit
