(* The transform interpreter stands alone: every step constructor
   compiles and applies from an executable that links the transform
   libraries but not the pipeline library, with the application counts
   and printed IR pinned, and the tuner searches a raise + to_blas
   candidate. *)

open Ir
module S = Transform.Script
module W = Workloads.Polybench
module B = Transforms.Blis_schedule
module F = Transforms.Loop_fuse

let mm = W.mm ~ni:40 ~nj:36 ~nk:32 ()
let two_mm = W.two_mm ~ni:24 ~nj:20 ~nk:16 ~nl:12 ()
let chain = W.matrix_chain [ 12; 30; 6; 24; 4 ]
let gesummv = W.gesummv ~n:16 ()

let folds =
  "void folds(float A[8][8], float B[8][8]) { for (int i = 0; i < 8; ++i) \
   for (int j = 0; j < 8; ++j) A[i][j] = A[i][j] * 1.0 + B[i][j] * 0.0; }"

let darknet = W.darknet_gemm ~m:16 ~n:12 ~k:8 ()
let blas_steps =
  [ S.Canonicalize false; S.Raise "linalg"; S.To_blas; S.Lower_linalg None ]

(* (name, payload, script, application count per step, digest of the
   printed module afterwards). "scf mm" lowers mm to SCF before raising
   it back. *)
let cases =
  [
    ( "mm linalg", mm,
      [ S.Canonicalize false; S.Raise "linalg"; S.Lower_linalg (Some 16) ],
      [ 0; 1; 1 ], "15859908414056b85d16af7b1ca930a7" );
    ( "mm blas", mm, blas_steps, [ 0; 1; 1; 0 ],
      "33738a30be679b77513003cb396a2eb4" );
    ( "mm blis", mm,
      [
        S.Canonicalize true;
        S.Raise "affine-matmul";
        S.Blis_schedule { B.mc = 16; nc = 32; kc = 8 };
      ],
      [ 0; 1; 1 ], "ef333f18446a34112bbb285c6f393975" );
    ( "mm pluto", mm,
      [ S.Fuse F.Smart_fuse; S.Interchange; S.Tile [ 16 ]; S.Dce ],
      [ 0; 1; 1; 0 ], "e679237c6ff7a28f1958bc0d3ef572d5" );
    ( "mm unroll", mm, [ S.Unroll 4; S.Lower_affine; S.Dce ], [ 1; 3; 0 ],
      "3984dd36ca4e96e3f1b2c6c69d7b5195" );
    ( "scf mm", mm,
      [
        S.Lower_affine;
        S.Raise "affine";
        S.Canonicalize false;
        S.Raise "linalg";
        S.Lower_linalg None;
      ],
      [ 3; 7; 0; 1; 1 ], "604fc4c1b73a4ae6db5125298464f0db" );
    ( "2mm maxfuse per-dim tiles", two_mm,
      [ S.Fuse F.Max_fuse; S.Tile [ 8; 4 ]; S.Canonicalize false ],
      [ 0; 3; 0 ], "bb6dceaec2dc1be07f3f40f9c02838a9" );
    ( "2mm nofuse per-dim tiles", two_mm,
      [ S.Fuse F.No_fuse; S.Tile [ 4; 8; 2; 5 ] ],
      [ 0; 3 ], "188b67b437ce281dc5a9af33f10cf0d6" );
    ( "2mm blas", two_mm,
      [
        S.Canonicalize false;
        S.Raise "linalg";
        S.Reorder_chains;
        S.To_blas;
        S.Lower_linalg None;
        S.Dce;
      ],
      [ 0; 3; 1; 2; 1; 0 ], "bc2bca42e64f3f8221b3d2c70d79bfbb" );
    ( "matrix chain", chain,
      [
        S.Canonicalize false;
        S.Raise "linalg";
        S.Reorder_chains;
        S.To_blas;
        S.Lower_linalg None;
        S.Dce;
      ],
      [ 0; 6; 1; 3; 3; 0 ], "506df62a0eb586f9f382933ef7352c83" );
    ( "gesummv smartfuse", gesummv, [ S.Fuse F.Smart_fuse; S.Tile [ 8 ] ],
      [ 5; 0 ], "98db7a9015c7b56901c1d2e63b847031" );
    ( "gesummv maxfuse", gesummv, [ S.Fuse F.Max_fuse; S.Interchange ],
      [ 5; 0 ], "98db7a9015c7b56901c1d2e63b847031" );
    ( "folds", folds, [ S.Canonicalize false; S.Canonicalize true; S.Dce ],
      [ 1; 2; 0 ], "097dfe06ae309db67f6b5ebf71fedffb" );
    ( "darknet", darknet,
      [ S.Delinearize; S.Canonicalize false; S.Raise "linalg"; S.To_blas ],
      [ 3; 0; 1; 1 ], "0e4137622a17f3189c0dcadc801c4eb5" );
  ]

(* One tag per constructor (and per raising set): adding a step
   constructor breaks this match until the cases above cover it. *)
let tag = function
  | S.Tile [ _ ] -> "tile"
  | S.Tile _ -> "tile per-dim"
  | S.Interchange -> "interchange"
  | S.Fuse _ -> "fuse"
  | S.Unroll _ -> "unroll"
  | S.Lower_affine -> "lower_affine"
  | S.Lower_linalg None -> "lower_linalg"
  | S.Lower_linalg (Some _) -> "lower_linalg tiled"
  | S.Blis_schedule _ -> "blis_schedule"
  | S.Raise set -> "raise " ^ set
  | S.Canonicalize false -> "canonicalize"
  | S.Canonicalize true -> "canonicalize fast-math"
  | S.Delinearize -> "delinearize"
  | S.Dce -> "dce"
  | S.Reorder_chains -> "reorder_chains"
  | S.To_blas -> "to_blas"

let all_tags =
  [
    "tile"; "tile per-dim"; "interchange"; "fuse"; "unroll"; "lower_affine";
    "lower_linalg"; "lower_linalg tiled"; "blis_schedule"; "raise linalg";
    "raise affine-matmul"; "raise affine"; "canonicalize";
    "canonicalize fast-math"; "delinearize"; "dce"; "reorder_chains";
    "to_blas";
  ]

let sole_func m =
  match List.filter Core.is_func (Core.ops_of_block (Core.module_block m)) with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected one function, found %d" (List.length fs)

let test_every_step_applies () =
  let covered = List.concat_map (fun (_, _, steps, _, _) -> steps) cases in
  List.iter
    (fun t ->
      if not (List.exists (fun s -> tag s = t) covered) then
        Alcotest.failf "no case applies a %s step" t)
    all_tags;
  List.iter
    (fun (name, src, steps, counts, digest) ->
      let m = Met.Emit_affine.translate src in
      let compiled = Transform.Interp.compile_steps steps in
      Alcotest.(check (list string))
        (name ^ ": step names")
        (List.map S.step_name steps)
        (List.map (fun c -> c.Transform.Interp.c_name) compiled);
      let f = sole_func m in
      Alcotest.(check (list int))
        (name ^ ": application counts")
        counts
        (List.map (fun c -> Transform.Interp.apply_step c f) compiled);
      Verifier.verify m;
      Alcotest.(check string)
        (name ^ ": printed IR") digest
        (Support.Digest.string (Printer.op_to_string m)))
    cases

let test_tune_searches_blas () =
  let o =
    Tune.search ~machine:Machine.Machine_model.amd_2920x
      ~translate:(fun () -> Met.Emit_affine.translate mm)
      [
        { Tune.c_name = "clang"; c_steps = [] };
        { Tune.c_name = "blas"; c_steps = blas_steps };
      ]
  in
  List.iter
    (fun (ev : Tune.evaluation) ->
      Alcotest.(check (option string))
        (ev.Tune.ev_candidate.Tune.c_name ^ " evaluated")
        None ev.Tune.ev_error)
    o.Tune.o_evaluations;
  Alcotest.(check string) "winner" "blas" o.Tune.o_best.Tune.c_name;
  Alcotest.(check (list (option (float 0.))))
    "modelled seconds"
    [ Some 0x1.10923c7218325p-15; Some 0x1.b6fe46be4eea2p-16 ]
    (List.map (fun (ev : Tune.evaluation) -> ev.Tune.ev_seconds)
       o.Tune.o_evaluations)

let () =
  Alcotest.run "interp-standalone"
    [
      ( "standalone",
        [
          Alcotest.test_case "every step compiles and applies" `Quick
            test_every_step_applies;
          Alcotest.test_case "tuner searches a raise + to_blas candidate"
            `Quick test_tune_searches_blas;
        ] );
    ]
