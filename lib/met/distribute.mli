(** Loop distribution — MET's canonicalization pass (§III of the paper):
    splitting loops so that each dependence-connected group of statements
    gets its own nest isolates the computational idioms (e.g. a GEMM
    accumulation from its initialization statement) and simplifies
    pattern recognition.

    Two statements of a loop body may go to separate copies of the loop
    unless a dependence between them ({!Affine.Dependence}, over the
    subscripts' linear forms) is carried by that loop. The groups — the
    strongly connected components of the statements' dependence graph —
    are emitted in a topological order, ties broken by first member
    (Allen–Kennedy distribution), so a statement never moves after one
    whose store it must precede. *)

(** Distribute every loop of a kernel body, recursively (innermost first). *)
val kernel : C_ast.kernel -> C_ast.kernel
