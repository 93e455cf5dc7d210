(* The one dependence test (Affine.Dependence) and the transforms that
   ask it: tiling, interchange, fusion and MET's loop distribution. *)

open Ir
module D = Affine.Dependence
module P = Mlt.Pipeline
module S = Transform.Script
module W = Workloads.Polybench

let lin ?(c = 0) coeffs = Some { Affine_expr.dim_coeffs = coeffs; sym_coeffs = []; constant = c }

let vector = Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (D.to_string v)) ( = )

let expect_vector name expected = function
  | D.Vector v -> Alcotest.check vector name expected v
  | D.Independent -> Alcotest.failf "%s: independent" name

let expect_independent name = function
  | D.Independent -> ()
  | D.Vector v -> Alcotest.failf "%s: %s, expected independent" name (D.to_string v)

let test_subscript_kinds () =
  (* A[i+1][j] against A[i][j+1] *)
  expect_vector "strong SIV" [| D.Dist 1; D.Dist (-1) |]
    (D.test ~depth:2
       [ lin ~c:1 [ (0, 1) ]; lin [ (1, 1) ] ]
       [ lin [ (0, 1) ]; lin ~c:1 [ (1, 1) ] ]);
  (* A[2i] against A[2i+1]: 2 does not divide 1 *)
  expect_independent "SIV, indivisible"
    (D.test ~depth:1 [ lin [ (0, 2) ] ] [ lin ~c:1 [ (0, 2) ] ]);
  (* A[0] against A[0], A[0] against A[1] *)
  expect_vector "ZIV equal" [| D.Any |] (D.test ~depth:1 [ lin [] ] [ lin [] ]);
  expect_independent "ZIV unequal" (D.test ~depth:1 [ lin [] ] [ lin ~c:1 [] ]);
  (* A[2i] against A[2j+1]: the GCD 2 does not divide 1 *)
  expect_independent "GCD"
    (D.test ~depth:2 [ lin [ (0, 2) ] ] [ lin ~c:1 [ (1, 2) ] ]);
  (* x[i] against x[j]: coupled, every loop unknown *)
  expect_vector "coupled" [| D.Any; D.Any |]
    (D.test ~depth:2 [ lin [ (0, 1) ] ] [ lin [ (1, 1) ] ]);
  (* A[i][j] against A[i][j'] with j, j' loops of one side each *)
  expect_vector "other loops only" [| D.Dist 0 |]
    (D.test ~depth:1
       [ lin [ (0, 1) ]; lin [ (1, 1) ] ]
       [ lin [ (0, 1) ]; lin [ (1, 1) ] ]);
  expect_independent "two distances for one loop"
    (D.test ~depth:1 [ lin [ (0, 1) ]; lin [ (0, 1) ] ]
       [ lin [ (0, 1) ]; lin ~c:1 [ (0, 1) ] ]);
  expect_vector "no linear form" [| D.Any |]
    (D.test ~depth:1 [ None ] [ lin [ (0, 1) ] ])

let test_predicates () =
  let d k = D.Dist k in
  Alcotest.(check bool) "(0, 1) tiles" true (D.permutable ~band:0 [| d 0; d 1 |]);
  Alcotest.(check bool) "(1, -1) does not" false
    (D.permutable ~band:0 [| d 1; d (-1) |]);
  Alcotest.(check bool) "(*, 0) tiles" true (D.permutable ~band:0 [| D.Any; d 0 |]);
  Alcotest.(check bool) "(1 | 1, -1): carried outside the band" true
    (D.permutable ~band:1 [| d 1; d 1; d (-1) |]);
  Alcotest.(check bool) "(1, -1): j moves innermost" true
    (D.rotatable ~at:1 [| d 1; d (-1) |]);
  Alcotest.(check bool) "(1, -1): i does not" false (D.rotatable ~at:0 [| d 1; d (-1) |]);
  Alcotest.(check bool) "(0, 0, *): j moves innermost" true
    (D.rotatable ~at:1 [| d 0; d 0; D.Any |]);
  Alcotest.(check bool) "fuse at distance 1" true (D.fusable ~at:0 [| d 1; D.Any |]);
  Alcotest.(check bool) "not at -1" false (D.fusable ~at:0 [| d (-1) |]);
  Alcotest.(check bool) "not at *" false (D.fusable ~at:0 [| D.Any |]);
  Alcotest.(check bool) "0 is not carried" false (D.carried [| D.Any; d 0 |]);
  Alcotest.(check bool) "* is" true (D.carried [| d 0; D.Any |]);
  Alcotest.(check bool) "an outer distance meets no iteration" false
    (D.carried [| d 1; D.Any |])

(* ---- the witnesses ------------------------------------------------------- *)

let skew =
  "void skew(float A[65][65]) {\n\
  \  for (int i = 0; i < 64; ++i)\n\
  \    for (int j = 0; j < 64; ++j)\n\
  \      A[i+1][j] = A[i][j+1] + 1.0;\n\
   }\n"

let mv =
  "void mv(float A[16][16], float x[16]) {\n\
  \  for (int i = 0; i < 16; ++i)\n\
  \    for (int j = 0; j < 16; ++j)\n\
  \      x[i] += A[i][j] * x[j];\n\
   }\n"

let alias =
  "void alias(float B[16][16], float C[16][16]) {\n\
  \  for (int i = 0; i < 16; ++i)\n\
  \    for (int j = 0; j < 16; ++j)\n\
  \      for (int k = 0; k < 16; ++k)\n\
  \        C[i][j] += C[i][k] * B[k][j];\n\
   }\n"

let dist =
  "void dist(float A[1], float B[16], float C[16]) {\n\
  \  for (int i = 0; i < 16; ++i) {\n\
  \    A[0] = C[i] * 2.0;\n\
  \    B[i] = A[0] + 1.0;\n\
  \  }\n\
   }\n"

let dist2 =
  "void dist2(float A[17], float B[16], float D[16]) {\n\
  \  for (int i = 0; i < 16; ++i) {\n\
  \    A[i] = 2.0;\n\
  \    B[i] = D[i] * 3.0;\n\
  \    D[i] = A[i+1] + 1.0;\n\
  \  }\n\
   }\n"

let tile8 = P.schedule_of_steps [ S.Tile [ 8 ] ]
let fuse_tile4 = P.schedule_of_steps [ S.Fuse Transforms.Loop_fuse.Max_fuse; S.Tile [ 4 ] ]

let tiled_nests schedule src =
  let m = Met.Emit_affine.translate src in
  let n = List.length (Affine.Loops.all_loops m) in
  List.length (Affine.Loops.all_loops (P.prepare_schedule_module schedule m)) - n

let test_loop_witnesses () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun schedule ->
          if not (P.check_schedule_semantics schedule src) then
            Alcotest.failf "%s: %s changed its semantics" name
              (P.schedule_name schedule);
          Alcotest.(check int)
            (Printf.sprintf "%s untiled under %s" name (P.schedule_name schedule))
            0 (tiled_nests schedule src))
        [ P.Config P.Pluto_default; P.Config P.Pluto_best; tile8; fuse_tile4 ])
    [ ("skew", skew); ("mv", mv); ("alias", alias) ];
  let gemm = W.gemm ~ni:16 ~nj:16 ~nk:16 () in
  Alcotest.(check int) "gemm: tile 8 adds three tile loops per nest" 5
    (tiled_nests tile8 gemm);
  Alcotest.(check bool) "gemm tiled keeps its semantics" true
    (P.check_schedule_semantics tile8 gemm)

let test_tile_missed_remark () =
  let remarks = ref [] in
  Remark.with_sink
    (fun r -> remarks := r :: !remarks)
    (fun () -> ignore (tiled_nests tile8 skew));
  match
    List.filter (fun (r : Remark.t) -> r.r_stage = Some "dependence") !remarks
  with
  | [ r ] ->
      Alcotest.(check bool) "missed" true (r.r_kind = Remark.Missed);
      Alcotest.(check (option string)) "pattern" (Some "transform.tile") r.r_pattern;
      Alcotest.(check string) "message"
        "nest not tiled: load %A[%i, %j + 1] and store %A[%i + 1, %j] depend \
         at distance (-1, 1)"
        r.r_message
  | rs -> Alcotest.failf "%d dependence remarks" (List.length rs)

let loops_of_kernel src =
  let k = List.hd (Met.C_parser.parse_program src) in
  List.map
    (function
      | Met.C_ast.S_for { body; _ } ->
          List.map
            (function
              | Met.C_ast.S_assign { lhs; _ } -> lhs.array
              | Met.C_ast.S_for _ -> "for")
            body
      | Met.C_ast.S_assign { lhs; _ } -> [ lhs.array ])
    (Met.Distribute.kernel k).k_body

let test_distribution_witnesses () =
  List.iter
    (fun (name, src, groups) ->
      Alcotest.(check (list (list string))) (name ^ " groups") groups
        (loops_of_kernel src);
      let as_written =
        Met.Emit_affine.program ~distribute:false (Met.C_parser.parse_program src)
      in
      Alcotest.(check bool) (name ^ " equivalent to the program as written") true
        (Interp.Eval.equivalent as_written (Met.Emit_affine.translate src) name
           ~seed:45))
    [
      ("dist", dist, [ [ "A"; "B" ] ]);
      ("dist2", dist2, [ [ "B" ]; [ "A"; "D" ] ]);
    ]

(* ---- generated nests ----------------------------------------------------- *)

(* A perfect nest of 2-3 loops, each over [0, n), with one or two
   statements [W[...] = R[...] + ...] over arrays A, B, C. Each array
   dim is subscripted by one loop (the same at every access of that
   array) plus an offset in [-2, 2], shifted into bounds by 2. With
   n >= 5 every distance the offsets make (|d| <= 4) occurs. *)
type access = { arr : int; offs : int array }
type stmt = { write : access; reads : access list; accumulate : bool }
type nest = { depth : int; n : int; dims : int array array; stmts : stmt list }

let names = [| "A"; "B"; "C" |]

let gen_nest =
  let open QCheck.Gen in
  let* depth = int_range 2 3 in
  let* n = int_range 5 6 in
  let* dims =
    array_repeat 3
      (let* rank = int_range 1 depth in
       let* perm = shuffle_l (List.init depth Fun.id) in
       return (Array.sub (Array.of_list perm) 0 rank))
  in
  let access arr =
    let* offs = array_repeat (Array.length dims.(arr)) (int_range 0 4) in
    return { arr; offs }
  in
  let stmt =
    let* w = int_range 0 1 in
    let* write = access w in
    let* nreads = int_range 1 2 in
    let* reads = list_repeat nreads (int_range 0 2 >>= access) in
    let* accumulate = bool in
    return { write; reads; accumulate }
  in
  let* nstmts = int_range 1 2 in
  let* stmts = list_repeat nstmts stmt in
  return { depth; n; dims; stmts }

let loop_var l = String.make 1 "ijk".[l]

let nest_source t =
  let ref_ a =
    names.(a.arr)
    ^ String.concat ""
        (Array.to_list
           (Array.mapi
              (fun r off -> Printf.sprintf "[%s + %d]" (loop_var t.dims.(a.arr).(r)) off)
              a.offs))
  in
  let decl a =
    Printf.sprintf "float %s%s" names.(a)
      (String.concat ""
         (Array.to_list (Array.map (fun _ -> Printf.sprintf "[%d]" (t.n + 4)) t.dims.(a))))
  in
  let stmt s =
    Printf.sprintf "%s %s %s;" (ref_ s.write)
      (if s.accumulate then "+=" else "=")
      (String.concat " + " (List.map (fun a -> ref_ a ^ " * 0.5") s.reads))
  in
  Printf.sprintf "void g(%s) {\n%s  { %s }\n}\n"
    (String.concat ", " (List.map decl [ 0; 1; 2 ]))
    (String.concat ""
       (List.init t.depth (fun l ->
            Printf.sprintf "for (int %s = 0; %s < %d; ++%s)\n" (loop_var l)
              (loop_var l) t.n (loop_var l))))
    (String.concat " " (List.map stmt t.stmts))

(* Brute force over every element: each pair of instances touching it,
   one of them storing, must run forward (>= 0) in every loop. *)
let distances_nonneg t =
  let cells = Hashtbl.create 256 in
  let touch it store a =
    let cell = (a.arr, Array.mapi (fun r off -> it.(t.dims.(a.arr).(r)) + off) a.offs) in
    Hashtbl.replace cells cell
      ((Array.copy it, store) :: Option.value ~default:[] (Hashtbl.find_opt cells cell))
  in
  let rec walk it l =
    if l = t.depth then
      List.iter
        (fun st ->
          if st.accumulate then touch it false st.write;
          List.iter (touch it false) st.reads;
          touch it true st.write)
        t.stmts
    else
      for v = 0 to t.n - 1 do
        it.(l) <- v;
        walk it (l + 1)
      done
  in
  walk (Array.make t.depth 0) 0;
  (* Each cell's instances, latest first. *)
  Hashtbl.fold
    (fun _ touches ok ->
      ok
      &&
      let rec forward = function
        | [] -> true
        | (later, s1) :: earlier ->
            List.for_all
              (fun (it, s2) ->
                (not (s1 || s2)) || Array.for_all2 (fun a b -> b >= a) it later)
              earlier
            && forward earlier
      in
      forward touches)
    cells true

let test_generated_nests () =
  let rand = Random.State.make [| 45 |] in
  let nests = QCheck.Gen.generate ~rand ~n:300 gen_nest in
  let schedules =
    List.map (fun c -> P.Config c) P.all_configs
    @ [ P.schedule_of_steps [ S.Tile [ 2 ] ]; P.schedule_of_steps [ S.Tile [ 2; 1; 3 ] ] ]
  in
  let tiled = ref 0 and nonneg = ref 0 in
  List.iter
    (fun t ->
      let src = nest_source t in
      let as_written =
        Met.Emit_affine.program ~distribute:false (Met.C_parser.parse_program src)
      in
      if not (Interp.Eval.equivalent as_written (Met.Emit_affine.translate src) "g" ~seed:3)
      then Alcotest.failf "distribution changed\n%s" src;
      List.iter
        (fun s ->
          if not (P.check_schedule_semantics ~seed:5 s src) then
            Alcotest.failf "%s changed\n%s" (P.schedule_name s) src)
        schedules;
      let m = Met.Emit_affine.program ~distribute:false (Met.C_parser.parse_program src) in
      let n = Transforms.Loop_tile.tile_nests m ~sizes:[ 2 ] in
      if not (Interp.Eval.equivalent as_written m "g" ~seed:7) then
        Alcotest.failf "tiling changed\n%s" src;
      if n = 1 then incr tiled;
      if distances_nonneg t then begin
        incr nonneg;
        if n = 0 then Alcotest.failf "all distances >= 0 but not tiled\n%s" src
      end)
    nests;
  Alcotest.(check (pair int int)) "tiled, all distances >= 0 (of 300)" (131, 120)
    (!tiled, !nonneg)

let suite =
  [
    Alcotest.test_case "subscript kinds" `Quick test_subscript_kinds;
    Alcotest.test_case "legality predicates" `Quick test_predicates;
    Alcotest.test_case "skew, mv, alias keep their semantics; gemm tiles" `Quick
      test_loop_witnesses;
    Alcotest.test_case "an untiled nest says why" `Quick test_tile_missed_remark;
    Alcotest.test_case "dist, dist2 distribute as written" `Quick
      test_distribution_witnesses;
    Alcotest.test_case "generated nests keep their semantics" `Quick
      test_generated_nests;
  ]
