(* Tests for structured remarks: the near-miss stage taxonomy the tactic
   matchers report ([--remarks=missed]), applied-rewrite remarks, and
   warning routing. *)

open Ir

(* Capture every remark emitted while [f] runs. *)
let capture f =
  let rs = ref [] in
  let v = Remark.with_sink (fun r -> rs := r :: !rs) f in
  (v, List.rev !rs)

let gemm_variant stmt =
  Printf.sprintf
    "void gemm(float A[8][8], float B[8][8], float C[8][8]) {\n\
    \  for (int i = 0; i < 8; i++)\n\
    \    for (int j = 0; j < 8; j++)\n\
    \      for (int k = 0; k < 8; k++)\n\
    \        %s\n\
     }\n"
    stmt

let raise_src src =
  let m = Met.Emit_affine.translate ~file:"k.c" src in
  ignore (Transforms.Tactics.raise_to_linalg m)

let gemm_misses remarks =
  List.filter
    (fun r ->
      r.Remark.r_kind = Remark.Missed && r.Remark.r_pattern = Some "GEMM")
    remarks

(* A statement that is not a contraction at all: the op-chain stage
   rejects before any access unification happens. *)
let test_missed_op_chain () =
  let _, rs =
    capture (fun () ->
        raise_src
          (gemm_variant "C[i][j] = C[i][j] - A[i][k] * B[k][j];"))
  in
  match gemm_misses rs with
  | r :: _ ->
      Alcotest.(check (option string)) "stage" (Some "op-chain")
        r.Remark.r_stage;
      Alcotest.(check bool) "locates the nest" true
        (Support.Loc.is_known r.Remark.r_loc);
      Alcotest.(check string) "in the C source" "k.c" r.Remark.r_loc.Support.Loc.file
  | [] -> Alcotest.fail "no missed GEMM remark"

(* A proper MAC whose B subscripts are transposed: the op chain matches,
   unification of the access patterns rejects. *)
let test_missed_access_unification () =
  let _, rs =
    capture (fun () ->
        raise_src
          (gemm_variant "C[i][j] = C[i][j] + A[i][k] * B[j][k];"))
  in
  match gemm_misses rs with
  | r :: _ ->
      Alcotest.(check (option string)) "stage" (Some "access-unification")
        r.Remark.r_stage
  | [] -> Alcotest.fail "no missed GEMM remark"

(* A non-normalized nest (lb = 1): the control-flow stage rejects. *)
let test_missed_control_flow () =
  let src =
    "void gemm(float A[8][8], float B[8][8], float C[8][8]) {\n\
    \  for (int i = 1; i < 8; i++)\n\
    \    for (int j = 0; j < 8; j++)\n\
    \      for (int k = 0; k < 8; k++)\n\
    \        C[i][j] = C[i][j] + A[i][k] * B[k][j];\n\
     }\n"
  in
  let _, rs = capture (fun () -> raise_src src) in
  match gemm_misses rs with
  | r :: _ ->
      Alcotest.(check (option string)) "stage" (Some "control-flow")
        r.Remark.r_stage
  | [] -> Alcotest.fail "no missed GEMM remark"

(* An access that does not span the array (coverage stage): 8x8 loops
   over 16-column arrays. *)
let test_missed_coverage () =
  let src =
    "void gemm(float A[8][16], float B[16][16], float C[8][16]) {\n\
    \  for (int i = 0; i < 8; i++)\n\
    \    for (int j = 0; j < 8; j++)\n\
    \      for (int k = 0; k < 8; k++)\n\
    \        C[i][j] = C[i][j] + A[i][k] * B[k][j];\n\
     }\n"
  in
  let _, rs = capture (fun () -> raise_src src) in
  match gemm_misses rs with
  | r :: _ ->
      Alcotest.(check (option string)) "stage" (Some "coverage")
        r.Remark.r_stage
  | [] -> Alcotest.fail "no missed GEMM remark"

let test_applied_remarks () =
  (* W.gemm initializes C, so both raise-fill and GEMM fire. *)
  let _, rs =
    capture (fun () ->
        raise_src (Workloads.Polybench.gemm ~ni:8 ~nj:8 ~nk:8 ()))
  in
  let applied =
    List.filter (fun r -> r.Remark.r_kind = Remark.Applied) rs
  in
  Alcotest.(check bool) "GEMM applied" true
    (List.exists (fun r -> r.Remark.r_pattern = Some "GEMM") applied);
  Alcotest.(check bool) "raise-fill applied" true
    (List.exists (fun r -> r.Remark.r_pattern = Some "raise-fill") applied);
  (* On the clean kernel, GEMM reports no near-miss. *)
  Alcotest.(check int) "no missed GEMM" 0 (List.length (gemm_misses rs))

(* With no sink, the matchers skip near-miss explanation entirely; the
   guard is [Remark.enabled]. *)
let test_disabled_without_sink () =
  Alcotest.(check bool) "disabled by default" false (Remark.enabled ());
  let _, rs = capture (fun () -> Alcotest.(check bool) "enabled under sink" true (Remark.enabled ())) in
  Alcotest.(check int) "no stray remarks" 0 (List.length rs)

let test_warning_capture () =
  let (), rs =
    capture (fun () ->
        Remark.warningf ~context:"cli" "--%s is deprecated" "verify")
  in
  match rs with
  | [ r ] ->
      Alcotest.(check bool) "warning kind" true (r.Remark.r_kind = Remark.Warning);
      Alcotest.(check (option string)) "context" (Some "cli") r.Remark.r_context;
      Alcotest.(check string) "message" "--verify is deprecated"
        r.Remark.r_message
  | _ -> Alcotest.fail "expected exactly one warning"

let test_to_string_format () =
  let r =
    {
      Remark.r_kind = Remark.Missed;
      r_context = None;
      r_pattern = Some "GEMM";
      r_stage = Some "op-chain";
      r_loc = Support.Loc.make ~file:"k.c" ~line:2 ~col:3;
      r_message = "not a contraction";
    }
  in
  Alcotest.(check string) "rendering"
    "k.c:2:3: remark [missed] GEMM (stage: op-chain): not a contraction"
    (Remark.to_string r)

let test_kinds_of_string () =
  Alcotest.(check bool) "missed" true
    (Remark.kinds_of_string "missed" = Some [ Remark.Missed ]);
  Alcotest.(check bool) "applied" true
    (Remark.kinds_of_string "applied" = Some [ Remark.Applied ]);
  Alcotest.(check bool) "analysis" true
    (Remark.kinds_of_string "analysis" = Some [ Remark.Analysis ]);
  (match Remark.kinds_of_string "all" with
  | Some ks -> Alcotest.(check int) "all four" 4 (List.length ks)
  | None -> Alcotest.fail "all must parse");
  Alcotest.(check bool) "junk rejected" true
    (Remark.kinds_of_string "everything" = None)

let suite =
  [
    Alcotest.test_case "missed: op-chain stage" `Quick test_missed_op_chain;
    Alcotest.test_case "missed: access-unification stage" `Quick
      test_missed_access_unification;
    Alcotest.test_case "missed: control-flow stage" `Quick
      test_missed_control_flow;
    Alcotest.test_case "missed: coverage stage" `Quick test_missed_coverage;
    Alcotest.test_case "applied remarks on the clean kernel" `Quick
      test_applied_remarks;
    Alcotest.test_case "disabled without a sink" `Quick
      test_disabled_without_sink;
    Alcotest.test_case "warnings become structured remarks" `Quick
      test_warning_capture;
    Alcotest.test_case "to_string rendering" `Quick test_to_string_format;
    Alcotest.test_case "kinds_of_string" `Quick test_kinds_of_string;
  ]
