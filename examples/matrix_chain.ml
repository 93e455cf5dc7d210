(* Progressive raising, level two (§5.3): a chain of matrix products
   written as C loops is raised to Linalg, the chain is detected at the
   Linalg level (through the last-writer use-def relation, Listing 9),
   and re-parenthesized with the CLRS dynamic program.

     dune exec examples/matrix_chain.exe *)

open Ir

(* The paper's §5.3 example: (A1 x A2) x A3 costs 1.152e9 scalar
   multiplications, A1 x (A2 x A3) only 2.2e8. Scaled down 4x so the
   demonstration also runs through the interpreter. *)
let dims = [ 200; 275; 300; 25 ]

let () =
  let src = Workloads.Polybench.matrix_chain dims in
  print_endline "--- 1. C source: ((A1 x A2) x A3) with explicit temps ---";
  print_string src;

  let m = Met.Emit_affine.translate src in
  let f = Option.get (Core.find_func m "chain") in
  let raised = Transforms.Tactics.raise_to_linalg f in
  Printf.printf "\n--- 2. Raised to Linalg (%d sites: fills + matmuls) ---\n"
    raised;
  print_endline (Printer.op_to_string m);

  (* Listing 9: detect the chain by walking m_Op<MatmulOp> through the
     buffer producer relation. *)
  (match Transforms.Raise_chain.detect f with
  | [ chain ] ->
      Printf.printf "--- 3. Detected a chain of %d matrices ---\n"
        (List.length chain.Transforms.Raise_chain.inputs)
  | chains -> Printf.printf "--- 3. Detected %d chains ---\n" (List.length chains));

  let darr = Array.of_list dims in
  let t_left, c_left = Transforms.Matrix_chain.left_assoc darr in
  let t_opt, c_opt = Transforms.Matrix_chain.optimal darr in
  Printf.printf "initial parenthesization %s: %.3e scalar multiplications\n"
    (Transforms.Matrix_chain.to_string t_left) c_left;
  Printf.printf "optimal parenthesization %s: %.3e scalar multiplications\n"
    (Transforms.Matrix_chain.to_string t_opt) c_opt;

  let reference = Met.Emit_affine.translate src in
  let rewritten = Transforms.Raise_chain.reorder f in
  Printf.printf "\n--- 4. After reordering (%d chain rewritten) ---\n" rewritten;
  print_endline (Printer.op_to_string m);

  let equal = Interp.Eval.equivalent reference m "chain" ~seed:7 in
  Printf.printf "--- 5. Interpreter equivalence: %s ---\n"
    (if equal then "PASS" else "FAIL");

  (* Simulated times, IP vs OP, as in Table II. *)
  let machine = Machine.Machine_model.amd_2920x in
  let time g =
    let m = Met.Emit_affine.translate src in
    let f = Option.get (Core.find_func m "chain") in
    ignore (Transforms.Tactics.raise_to_linalg f);
    g f;
    ignore (Transforms.To_blas.run f);
    Transforms.Lower_linalg.run f;
    (Machine.Perf.time_func machine f).Machine.Perf.seconds
  in
  let t_ip = time (fun _ -> ()) in
  let t_op = time (fun f -> ignore (Transforms.Raise_chain.reorder f)) in
  Printf.printf "\n--- 6. Simulated time (%s) ---\n"
    machine.Machine.Machine_model.name;
  Printf.printf "  initial order: %.6f s\n" t_ip;
  Printf.printf "  optimal order: %.6f s  (speedup %.2fx)\n" t_op (t_ip /. t_op)
