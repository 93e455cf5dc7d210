open Ir
module D = Support.Diag

(* ---- attribute shape checks --------------------------------------------- *)

let err (op : Core.op) fmt =
  Printf.ksprintf
    (fun msg -> D.errorf ~loc:op.Core.o_loc "%s: %s" op.Core.o_name msg)
    fmt

let check_plain (op : Core.op) =
  if Core.num_operands op > 0 then err op "takes no operands";
  if Core.num_results op > 0 then err op "produces no results";
  if Array.length op.Core.o_regions > 0 then err op "carries no regions"

(* Every parameter must round-trip through the generic attribute grammar:
   Int, Ints and Str only (Bool/Float print forms do not re-parse). *)
let check_attr_kinds (op : Core.op) ~allowed =
  List.iter
    (fun (k, v) ->
      if not (List.mem k allowed) then err op "unknown attribute %S" k;
      match (v : Attr.t) with
      | Attr.Int _ | Attr.Ints _ | Attr.Str _ -> ()
      | _ ->
          err op
            "attribute %S must be an integer, integer list or string \
             (the only kinds the generic form round-trips)"
            k)
    op.Core.o_attrs

let required_int op name =
  match Core.find_attr op name with
  | Some (Attr.Int i) -> i
  | Some _ -> err op "attribute %S must be an integer" name
  | None -> err op "missing required attribute %S" name

let positive_int op name =
  let i = required_int op name in
  if i < 1 then err op "attribute %S must be >= 1 (got %d)" name i;
  i

(* ---- per-op verifiers ---------------------------------------------------- *)

let fuse_heuristics = [ "nofuse"; "smartfuse"; "maxfuse" ]
let raise_sets = [ "linalg"; "affine-matmul"; "affine" ]

let verify_tile op =
  check_plain op;
  check_attr_kinds op ~allowed:[ "sizes" ];
  match Core.find_attr op "sizes" with
  | Some (Attr.Ints sizes) ->
      if sizes = [] then err op "attribute \"sizes\" must be non-empty";
      List.iter
        (fun s -> if s < 1 then err op "tile size %d must be >= 1" s)
        sizes
  | Some _ -> err op "attribute \"sizes\" must be an integer list"
  | None -> err op "missing required attribute \"sizes\""

let verify_fuse op =
  check_plain op;
  check_attr_kinds op ~allowed:[ "heuristic" ];
  match Core.find_attr op "heuristic" with
  | Some (Attr.Str h) ->
      if not (List.mem h fuse_heuristics) then
        err op "unknown fusion heuristic %S (expected %s)" h
          (String.concat ", " fuse_heuristics)
  | Some _ -> err op "attribute \"heuristic\" must be a string"
  | None -> err op "missing required attribute \"heuristic\""

let verify_unroll op =
  check_plain op;
  check_attr_kinds op ~allowed:[ "factor" ];
  let f = required_int op "factor" in
  if f < 2 then err op "attribute \"factor\" must be >= 2 (got %d)" f

let verify_lower_linalg op =
  check_plain op;
  check_attr_kinds op ~allowed:[ "tile_size" ];
  match Core.find_attr op "tile_size" with
  | None -> ()
  | Some (Attr.Int s) ->
      if s < 2 then err op "attribute \"tile_size\" must be >= 2 (got %d)" s
  | Some _ -> err op "attribute \"tile_size\" must be an integer"

let verify_blis op =
  check_plain op;
  check_attr_kinds op ~allowed:[ "mc"; "nc"; "kc" ];
  ignore (positive_int op "mc");
  ignore (positive_int op "nc");
  ignore (positive_int op "kc")

let verify_raise op =
  check_plain op;
  check_attr_kinds op ~allowed:[ "set" ];
  match Core.find_attr op "set" with
  | Some (Attr.Str s) ->
      if not (List.mem s raise_sets) then
        err op "unknown raising set %S (expected %s)" s
          (String.concat ", " raise_sets)
  | Some _ -> err op "attribute \"set\" must be a string"
  | None -> err op "missing required attribute \"set\""

let verify_canonicalize op =
  check_plain op;
  check_attr_kinds op ~allowed:[ "fast_math" ];
  match Core.find_attr op "fast_math" with
  | None | Some (Attr.Int (0 | 1)) -> ()
  | Some _ -> err op "attribute \"fast_math\" must be 0 or 1"

let verify_bare op =
  check_plain op;
  check_attr_kinds op ~allowed:[]

(* ---- registration -------------------------------------------------------- *)

let () =
  Dialect.register_all
  [
    Dialect.def "transform.tile" ~verify:verify_tile
      ~summary:"tile affine loop nests ({sizes = [..]}; one size tiles \
                every dimension)";
    Dialect.def "transform.interchange" ~verify:verify_bare
      ~summary:"rotate a unit-stride loop innermost (vectorizing \
                interchange; marks functions fast_math)";
    Dialect.def "transform.fuse" ~verify:verify_fuse
      ~summary:"fuse adjacent loops ({heuristic = \"nofuse\" | \
                \"smartfuse\" | \"maxfuse\"})";
    Dialect.def "transform.unroll" ~verify:verify_unroll
      ~summary:"unroll innermost loops ({factor = N})";
    Dialect.def "transform.lower_affine" ~verify:verify_bare
      ~summary:"lower the affine dialect to SCF + memref";
    Dialect.def "transform.lower_linalg" ~verify:verify_lower_linalg
      ~summary:"lower Linalg ops to affine loops ({tile_size = N} for \
                the cache-tiled path)";
    Dialect.def "transform.blis_schedule" ~verify:verify_blis
      ~summary:"lower affine.matmul through the packed BLIS schedule \
                ({mc, nc, kc})";
    Dialect.def "transform.raise" ~verify:verify_raise
      ~summary:"apply a raising tactic set ({set = \"linalg\" | \
                \"affine-matmul\" | \"affine\"})";
    Dialect.def "transform.canonicalize" ~verify:verify_canonicalize
      ~summary:"algebraic canonicalization ({fast_math = 1} enables \
                value-unsafe folds)";
    Dialect.def "transform.delinearize" ~verify:verify_bare
      ~summary:"optimistically delinearize rank-1 buffers into their \
                row-major shape (Darknet-style linearized GEMMs)";
    Dialect.def "transform.dce" ~verify:verify_bare
      ~summary:"dead-code and dead-buffer elimination";
    Dialect.def "transform.reorder_chains" ~verify:verify_bare
      ~summary:"re-parenthesize matmul chains optimally (MLT-Blas)";
    Dialect.def "transform.to_blas" ~verify:verify_bare
      ~summary:"replace Linalg ops with vendor-library calls";
  ]
