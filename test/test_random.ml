(* Randomized end-to-end properties: the heavyweight guarantees of the
   reproduction. Each property drives whole pipelines on generated
   programs and checks interpreter equivalence. *)

open Ir
module W = Workloads

(* ---- random contraction specs ----------------------------------------- *)

(* Generate a well-formed contraction: pick disjoint index groups
   M (free in A), N (free in B), K (contracted), assemble the output from
   a shuffle of M @ N and the inputs from shuffles of their groups. *)
let gen_spec =
  let open QCheck.Gen in
  let* m_count = int_range 1 2 in
  let* n_count = int_range 1 2 in
  let* k_count = int_range 1 2 in
  let letters = [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ] in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let m_idx = take m_count letters in
  let n_idx = take n_count (List.filteri (fun i _ -> i >= m_count) letters) in
  let k_idx =
    take k_count (List.filteri (fun i _ -> i >= m_count + n_count) letters)
  in
  let* out = shuffle_l (m_idx @ n_idx) in
  let* in1 = shuffle_l (m_idx @ k_idx) in
  let* in2 = shuffle_l (n_idx @ k_idx) in
  let str l = String.init (List.length l) (List.nth l) in
  return (Printf.sprintf "%s-%s-%s" (str out) (str in1) (str in2))

let arb_spec = QCheck.make ~print:Fun.id gen_spec

let prop_random_contraction_ttgt =
  QCheck.Test.make ~name:"random contractions: TTGT raising is semantics-preserving"
    ~count:40 arb_spec (fun spec_str ->
      let spec = W.Contraction_spec.parse spec_str in
      let sizes =
        List.mapi
          (fun i c -> (c, 3 + ((i * 2) mod 4)))
          (W.Contraction_spec.all_indices spec)
      in
      let src =
        W.Contraction_spec.c_source spec ~sizes ~init:false ~name:"kern" ()
      in
      let reference = Met.Emit_affine.translate src in
      let m = Met.Emit_affine.translate src in
      let pat = Transforms.Tactics.contraction spec in
      let n = Rewriter.apply_greedily m (Rewriter.freeze [ pat ]) in
      Verifier.verify m;
      n = 1 && Interp.Eval.equivalent reference m "kern" ~seed:61)

let prop_random_contraction_full_pipeline =
  QCheck.Test.make
    ~name:"random contractions: raise + lower + scf roundtrip" ~count:20
    arb_spec (fun spec_str ->
      let spec = W.Contraction_spec.parse spec_str in
      let sizes =
        List.map (fun c -> (c, 4)) (W.Contraction_spec.all_indices spec)
      in
      let src =
        W.Contraction_spec.c_source spec ~sizes ~init:true ~name:"kern" ()
      in
      let reference = Met.Emit_affine.translate src in
      let m = Met.Emit_affine.translate src in
      ignore
        (Rewriter.apply_greedily m
           (Rewriter.freeze
              [
                Transforms.Tactics.fill_pattern ();
                Transforms.Tactics.contraction spec;
              ]));
      Transforms.Lower_linalg.run m;
      Transforms.Lower_affine.run m;
      ignore (Transforms.Raise_scf.run m);
      Verifier.verify m;
      Interp.Eval.equivalent reference m "kern" ~seed:67)

(* ---- random matrix chains --------------------------------------------- *)

let prop_random_chain_reorder =
  QCheck.Test.make ~name:"random chains: reorder is semantics-preserving"
    ~count:25
    QCheck.(list_of_size (Gen.int_range 4 7) (int_range 2 14))
    (fun dims ->
      QCheck.assume (List.length dims >= 4);
      let src = W.Polybench.matrix_chain dims in
      let reference = Met.Emit_affine.translate src in
      let m = Met.Emit_affine.translate src in
      let f = Option.get (Core.find_func m "chain") in
      ignore (Transforms.Tactics.raise_to_linalg f);
      ignore (Transforms.Raise_chain.reorder f);
      Verifier.verify m;
      Interp.Eval.equivalent reference m "chain" ~seed:71)

(* ---- random tilings ---------------------------------------------------- *)

let prop_random_tiling =
  QCheck.Test.make ~name:"random tile sizes preserve gemm semantics"
    ~count:40
    QCheck.(
      triple (int_range 2 13)
        (triple (int_range 3 11) (int_range 3 11) (int_range 3 11))
        bool)
    (fun (tile, (ni, nj, nk), fuse) ->
      let src = W.Polybench.gemm ~ni ~nj ~nk () in
      let reference = Met.Emit_affine.translate src in
      let m = Met.Emit_affine.translate src in
      if fuse then
        ignore (Transforms.Loop_fuse.run Transforms.Loop_fuse.Max_fuse m);
      Transforms.Loop_tile.tile_all m ~size:tile;
      Verifier.verify m;
      Interp.Eval.equivalent reference m "gemm" ~seed:73)

(* ---- affine map algebra ------------------------------------------------- *)

let gen_perm n =
  QCheck.Gen.(map Array.of_list (shuffle_l (List.init n Fun.id)))

let prop_inverse_permutation =
  QCheck.Test.make ~name:"permutation inverse round-trips index vectors"
    ~count:200
    QCheck.(pair (make (gen_perm 5)) (make Gen.(array_size (return 5) (int_bound 99))))
    (fun (p, v) ->
      let f = Affine_map.permutation p in
      let inv = Affine_map.permutation (Affine_map.inverse_permutation p) in
      Affine_map.eval inv ~dims:(Affine_map.eval f ~dims:v ()) () = v)

(* ---- random mini-C programs through the parser round trip -------------- *)

let gen_mini_c =
  let open QCheck.Gen in
  let* depth = int_range 1 3 in
  let* extents = list_repeat depth (int_range 2 5) in
  let* use_offset = bool in
  let vars = [ "i"; "j"; "k" ] in
  let subscripts =
    String.concat ""
      (List.mapi (fun d _ -> Printf.sprintf "[%s]" (List.nth vars d)) extents)
  in
  let dims =
    String.concat ""
      (List.map (fun e -> Printf.sprintf "[%d]" (e + if use_offset then 1 else 0)) extents)
  in
  let stmt =
    Printf.sprintf "A%s = A%s + 1.0;" subscripts subscripts
  in
  let rec loops d =
    if d = depth then stmt
    else
      Printf.sprintf "for (int %s = 0; %s < %d; ++%s) { %s }"
        (List.nth vars d) (List.nth vars d) (List.nth extents d)
        (List.nth vars d) (loops (d + 1))
  in
  return (Printf.sprintf "void f(float A%s) { %s }" dims (loops 0))

let prop_random_programs_roundtrip =
  QCheck.Test.make ~name:"random programs: print/parse IR roundtrip" ~count:60
    (QCheck.make ~print:Fun.id gen_mini_c)
    (fun src ->
      let m = Met.Emit_affine.translate src in
      let printed = Printer.op_to_string m in
      let m2 = Parser.parse_module printed in
      (* The parsed module is structurally equal to [m], so
         [Interp.Eval.equivalent] would run one side only; compare the
         reference walker on [m] with the compiled engine on [m2]. *)
      Printer.op_to_string m2 = printed
      && Ref_interp.all_same_bits
           (Ref_interp.run_on_random m "f" ~seed:79)
           (Interp.Eval.run_on_random m2 "f" ~seed:79))

(* ---- worklist driver vs full-sweep driver ------------------------------ *)

(* Random affine nests whose bodies bait the canonicalization folds. *)
let gen_fold_mini_c =
  let open QCheck.Gen in
  let* depth = int_range 1 3 in
  let* extents = list_repeat depth (int_range 2 5) in
  let* variant = int_range 0 3 in
  let vars = [ "i"; "j"; "k" ] in
  let subscripts =
    String.concat ""
      (List.mapi (fun d _ -> Printf.sprintf "[%s]" (List.nth vars d)) extents)
  in
  let dims =
    String.concat "" (List.map (Printf.sprintf "[%d]") extents)
  in
  let stmt =
    match variant with
    | 0 -> Printf.sprintf "A%s = A%s + 1.0;" subscripts subscripts
    | 1 -> Printf.sprintf "A%s = A%s * 1.0 + 0.0;" subscripts subscripts
    | 2 -> Printf.sprintf "A%s = 2.0 * 3.0 + A%s;" subscripts subscripts
    | _ -> Printf.sprintf "A%s = 0.0 + A%s * 1.0;" subscripts subscripts
  in
  let rec loops d =
    if d = depth then stmt
    else
      Printf.sprintf "for (int %s = 0; %s < %d; ++%s) { %s }"
        (List.nth vars d) (List.nth vars d) (List.nth extents d)
        (List.nth vars d) (loops (d + 1))
  in
  return (Printf.sprintf "void f(float A%s) { %s }" dims (loops 0))

(* A translated program is structurally equal to its clone and to its
   printed text parsed back; bumping one constant's bits, even to -0.0,
   breaks the equality. *)
let prop_random_programs_structurally_equal =
  QCheck.Test.make ~name:"random programs: clones are structurally equal"
    ~count:100
    (QCheck.make ~print:Fun.id
       (QCheck.Gen.oneof [ gen_mini_c; gen_fold_mini_c ]))
    (fun src ->
      let m = Met.Emit_affine.translate src in
      let changed = Core.clone_op m in
      let constant =
        Core.find_op changed (fun op -> op.Core.o_name = "arith.constant")
      in
      Option.iter
        (fun op ->
          let v = Attr.get_float (Core.attr op "value") in
          Core.set_attr op "value"
            (Attr.Float (if v = 0.0 then -.v else v +. 1.0)))
        constant;
      Core.structural_equal m (Core.clone_op m)
      && Core.structural_equal m (Parser.parse_module (Printer.op_to_string m))
      && Option.is_some constant
      && not (Core.structural_equal m changed))

(* Freshly-built pattern sets per driver run, selected by a bitmask, so
   the two drivers never share compiled-matcher state. *)
let build_patterns bits =
  List.concat
    [
      (if bits land 1 <> 0 then Transforms.Canonicalize.patterns () else []);
      (if bits land 2 <> 0 then Tdl.Backend.compile_tdl Tdl.Frontend.gemm_tdl
       else []);
      (if bits land 4 <> 0 then
         Tdl.Backend.compile_tdl
           "def MV { pattern y(i) += A(i,j) * x(j) }\n\
            def MVT { pattern y(j) += A(i,j) * x(i) }"
       else []);
      (if bits land 8 <> 0 then [ Transforms.Tactics.fill_pattern () ] else []);
    ]

(* Randomize root declarations: bit i of [mask] relaxes pattern i to Any.
   By the roots contract (the apply function keeps its own op guard), any
   Any-vs-rooted split must agree on the final IR and rewrite count —
   declarations only prune dispatch, never change behaviour. *)
let randomize_roots mask pats =
  List.mapi
    (fun i p ->
      if mask land (1 lsl i) <> 0 then { p with Rewriter.p_roots = Rewriter.Any }
      else p)
    pats

let gen_driver_case =
  let open QCheck.Gen in
  let* bits = int_range 1 15 in
  let* mask1 = int_range 0 ((1 lsl 12) - 1) in
  let* mask2 = int_range 0 ((1 lsl 12) - 1) in
  let* kind = int_range 0 3 in
  let* src =
    match kind with
    | 0 | 1 -> gen_fold_mini_c
    | 2 ->
        let* ni = int_range 2 6 and* nj = int_range 2 6
        and* nk = int_range 2 6 in
        return (W.Polybench.mm ~ni ~nj ~nk ())
    | _ ->
        let* ni = int_range 2 6 and* nj = int_range 2 6
        and* nk = int_range 2 6 in
        return (W.Polybench.gemm ~ni ~nj ~nk ())
  in
  return (bits, mask1, mask2, src)

let prop_worklist_matches_fullsweep =
  QCheck.Test.make
    ~name:
      "worklist driver = full-sweep driver (identical IR and rewrite counts, \
       any root split)"
    ~count:60
    (QCheck.make
       ~print:(fun (bits, mask1, mask2, src) ->
         Printf.sprintf "patterns=%#x roots1=%#x roots2=%#x\n%s" bits mask1
           mask2 src)
       gen_driver_case)
    (fun (bits, mask1, mask2, src) ->
      let m1 = Met.Emit_affine.translate src in
      let m2 = Met.Emit_affine.translate src in
      let fz1 = Rewriter.freeze (randomize_roots mask1 (build_patterns bits)) in
      let fz2 = Rewriter.freeze (randomize_roots mask2 (build_patterns bits)) in
      let n1 = Rewriter.apply_greedily m1 fz1 in
      let n2 = Rewriter.apply_greedily_fullsweep m2 fz2 in
      Verifier.verify m1;
      Verifier.verify m2;
      n1 = n2 && Printer.op_to_string m1 = Printer.op_to_string m2)

let prop_indexed_matches_relaxed =
  QCheck.Test.make
    ~name:
      "op-indexed dispatch = relaxed (unindexed) dispatch under the same \
       driver"
    ~count:40
    (QCheck.make
       ~print:(fun (bits, _, _, src) -> Printf.sprintf "patterns=%#x\n%s" bits src)
       gen_driver_case)
    (fun (bits, _, _, src) ->
      let m1 = Met.Emit_affine.translate src in
      let m2 = Met.Emit_affine.translate src in
      let n1 = Rewriter.apply_greedily m1 (Rewriter.freeze (build_patterns bits)) in
      let n2 =
        Rewriter.apply_greedily m2
          (Rewriter.Frozen.relax (Rewriter.freeze (build_patterns bits)))
      in
      Verifier.verify m1;
      Verifier.verify m2;
      n1 = n2 && Printer.op_to_string m1 = Printer.op_to_string m2)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_contraction_ttgt;
      prop_random_contraction_full_pipeline;
      prop_random_chain_reorder;
      prop_random_tiling;
      prop_inverse_permutation;
      prop_random_programs_roundtrip;
      prop_worklist_matches_fullsweep;
      prop_indexed_matches_relaxed;
      prop_random_programs_structurally_equal;
    ]
