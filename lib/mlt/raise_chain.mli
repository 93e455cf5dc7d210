(** Progressive raising, level two (§5.3): detecting chains of matrix
    multiplications at the Linalg level and re-parenthesizing them with
    the optimal order from {!Matrix_chain}.

    Buffer semantics note: Listing 9 chains [m_Op<MatmulOp>] through SSA
    use-def edges; on buffers the equivalent producer relation is the
    {e last writer} of a memref before its use, exposed here as
    {!last_writer} (and pluggable into {!Matchers.Op_match.matches}). *)

open Ir

(** [last_writer ~anchor v] scans backwards from [anchor] within its block
    for the latest operation writing buffer [v] ([linalg.fill],
    [linalg.matmul]'s output, [affine.store], ...). *)
val last_writer : anchor:Core.op -> Core.value -> Core.op option

type chain = {
  matmuls : Core.op list;  (** left-associative producers, in order *)
  inputs : Core.value list;  (** A1 ... An *)
  output : Core.value;
  temp_fills : Core.op list;  (** zero-fills of the intermediates *)
}

(** Chains of length >= 3 matrices found in a function (each matmul's
    intermediate must be a local, zero-filled, single-use buffer). *)
val detect : Core.op -> chain list

(** [reorder func] rewrites every detected chain whose optimal
    parenthesization beats the current one; dead intermediates are
    cleaned up. Returns the number of chains rewritten. *)
val reorder : Core.op -> int
