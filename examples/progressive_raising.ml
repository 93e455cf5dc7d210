(* The full progressive-raising ladder, bottom to top:

     SCF  ->  Affine  ->  Linalg  ->  BLAS

   starting from a Darknet-style kernel over linearized rank-1 buffers —
   the hardest case of Figure 8 — at the lowest abstraction level this IR
   has. Each rung is a raising pass from this repository:
     1. Raise_scf     : scf.for + memref accesses -> affine dialect
     2. Delinearize   : rank-1 strided subscripts -> 2-d memrefs
     3. GEMM tactic   : affine loops -> linalg.matmul
     4. To_blas       : linalg.matmul -> vendor library call

     dune exec examples/progressive_raising.exe *)

open Ir

let () =
  (* A linearized GEMM, as Darknet writes it. *)
  let src = Workloads.Polybench.darknet_gemm ~m:32 ~n:32 ~k:32 () in
  print_endline "--- 0. Darknet-style C source (linearized buffers) ---";
  print_string src;

  let m = Met.Emit_affine.translate src in
  (* Push it all the way DOWN first: the entry point the paper worries
     about, below even the affine level. *)
  Transforms.Lower_affine.run m;
  print_endline "\n--- 1. Entry at the SCF level (below Affine) ---";
  print_endline (Printer.op_to_string m);

  let reference = Met.Emit_affine.translate src in

  let raised_scf = Transforms.Raise_scf.run m in
  Printf.printf "--- 2. Raise SCF -> Affine (%d ops raised) ---\n" raised_scf;

  let delin =
    let total = ref 0 in
    Core.walk m (fun op ->
        if Core.is_func op then total := !total + Transforms.Delinearize.run op);
    !total
  in
  Printf.printf "--- 3. Delinearize (%d buffers retyped to 2-d) ---\n" delin;

  let raised = Transforms.Tactics.raise_to_linalg m in
  Printf.printf "--- 4. Raise Affine -> Linalg (%d sites) ---\n" raised;

  let converted = Transforms.To_blas.run m in
  Printf.printf "--- 5. Convert Linalg -> BLAS (%d calls) ---\n\n" converted;
  print_endline (Printer.op_to_string m);

  (* Semantics: same row-major data as the original rank-1 program. *)
  let n = 32 in
  let mk1 seed = let b = Interp.Buffer.create [ n * n ] in Interp.Buffer.randomize ~seed b; b in
  let mk2 seed = let b = Interp.Buffer.create [ n; n ] in Interp.Buffer.randomize ~seed b; b in
  let a1 = mk1 1 and b1 = mk1 2 and c1 = mk1 3 in
  let a2 = mk2 1 and b2 = mk2 2 and c2 = mk2 3 in
  Interp.Eval.run reference "darknet_gemm" [ a1; b1; c1 ];
  Interp.Eval.run m "darknet_gemm" [ a2; b2; c2 ];
  let diff =
    Interp.Buffer.max_abs_diff c1
      { c1 with Interp.Buffer.data = c2.Interp.Buffer.data }
  in
  Printf.printf "--- 6. Interpreter check (max |diff| = %g): %s ---\n" diff
    (if diff < 1e-3 then "PASS" else "FAIL")
