open Ir
module T = Transforms
module D = Support.Diag

type step =
  | Tile of int list
  | Interchange
  | Fuse of T.Loop_fuse.heuristic
  | Unroll of int
  | Lower_affine
  | Lower_linalg of int option
  | Blis_schedule of T.Blis_schedule.blocking
  | Raise of string
  | Canonicalize of bool
  | Delinearize
  | Dce
  | Reorder_chains
  | To_blas

let equal_step (a : step) (b : step) = a = b

let step_name = function
  | Tile sizes ->
      Printf.sprintf "transform.tile[%s]"
        (String.concat "," (List.map string_of_int sizes))
  | Interchange -> "transform.interchange"
  | Fuse h ->
      Printf.sprintf "transform.fuse[%s]" (T.Loop_fuse.heuristic_to_string h)
  | Unroll f -> Printf.sprintf "transform.unroll[%d]" f
  | Lower_affine -> "transform.lower_affine"
  | Lower_linalg None -> "transform.lower_linalg"
  | Lower_linalg (Some s) -> Printf.sprintf "transform.lower_linalg[%d]" s
  | Blis_schedule { T.Blis_schedule.mc; nc; kc } ->
      Printf.sprintf "transform.blis_schedule[mc=%d,nc=%d,kc=%d]" mc nc kc
  | Raise set -> Printf.sprintf "transform.raise[%s]" set
  | Canonicalize false -> "transform.canonicalize"
  | Canonicalize true -> "transform.canonicalize[fast-math]"
  | Delinearize -> "transform.delinearize"
  | Dce -> "transform.dce"
  | Reorder_chains -> "transform.reorder_chains"
  | To_blas -> "transform.to_blas"

let of_pluto (c : T.Pluto.config) =
  (Fuse c.T.Pluto.fusion :: (if c.T.Pluto.vectorize then [ Interchange ] else []))
  @ (if c.T.Pluto.tile > 1 then [ Tile [ c.T.Pluto.tile ] ] else [])

(* ---- step <-> op --------------------------------------------------------- *)

let op_fields = function
  | Tile sizes -> ("transform.tile", [ ("sizes", Attr.Ints sizes) ])
  | Interchange -> ("transform.interchange", [])
  | Fuse h ->
      ( "transform.fuse",
        [ ("heuristic", Attr.Str (T.Loop_fuse.heuristic_to_string h)) ] )
  | Unroll f -> ("transform.unroll", [ ("factor", Attr.Int f) ])
  | Lower_affine -> ("transform.lower_affine", [])
  | Lower_linalg None -> ("transform.lower_linalg", [])
  | Lower_linalg (Some s) ->
      ("transform.lower_linalg", [ ("tile_size", Attr.Int s) ])
  | Blis_schedule { T.Blis_schedule.mc; nc; kc } ->
      ( "transform.blis_schedule",
        [ ("kc", Attr.Int kc); ("mc", Attr.Int mc); ("nc", Attr.Int nc) ] )
  | Raise set -> ("transform.raise", [ ("set", Attr.Str set) ])
  | Canonicalize false -> ("transform.canonicalize", [])
  | Canonicalize true ->
      ("transform.canonicalize", [ ("fast_math", Attr.Int 1) ])
  | Delinearize -> ("transform.delinearize", [])
  | Dce -> ("transform.dce", [])
  | Reorder_chains -> ("transform.reorder_chains", [])
  | To_blas -> ("transform.to_blas", [])

let heuristic_of_string op = function
  | "nofuse" -> T.Loop_fuse.No_fuse
  | "smartfuse" -> T.Loop_fuse.Smart_fuse
  | "maxfuse" -> T.Loop_fuse.Max_fuse
  | other ->
      D.errorf ~loc:op.Core.o_loc "transform.fuse: unknown heuristic %S" other

let step_of_op (op : Core.op) =
  (* The dialect verifier already vetted attribute shapes whenever the
     script went through [of_steps]/[parse]; re-check lazily here so
     destructuring a hand-built module still fails cleanly. *)
  (match Dialect.lookup op.Core.o_name with
  | Some d -> d.Dialect.od_verify op
  | None ->
      D.errorf ~loc:op.Core.o_loc
        "%s is not a transform operation (a script may contain only \
         transform.* ops)"
        op.Core.o_name);
  match op.Core.o_name with
  | "transform.tile" -> Tile (Attr.get_ints (Core.attr op "sizes"))
  | "transform.interchange" -> Interchange
  | "transform.fuse" ->
      Fuse (heuristic_of_string op (Attr.get_str (Core.attr op "heuristic")))
  | "transform.unroll" -> Unroll (Attr.get_int (Core.attr op "factor"))
  | "transform.lower_affine" -> Lower_affine
  | "transform.lower_linalg" ->
      Lower_linalg
        (Option.map Attr.get_int (Core.find_attr op "tile_size"))
  | "transform.blis_schedule" ->
      Blis_schedule
        {
          T.Blis_schedule.mc = Attr.get_int (Core.attr op "mc");
          nc = Attr.get_int (Core.attr op "nc");
          kc = Attr.get_int (Core.attr op "kc");
        }
  | "transform.raise" -> Raise (Attr.get_str (Core.attr op "set"))
  | "transform.canonicalize" ->
      Canonicalize (Core.find_attr op "fast_math" = Some (Attr.Int 1))
  | "transform.delinearize" -> Delinearize
  | "transform.dce" -> Dce
  | "transform.reorder_chains" -> Reorder_chains
  | "transform.to_blas" -> To_blas
  | other ->
      D.errorf ~loc:op.Core.o_loc "unknown transform operation %S" other

(* ---- module <-> steps ---------------------------------------------------- *)

let of_steps steps =
  let m = Core.create_module () in
  let b = Builder.at_end (Core.module_block m) in
  List.iter
    (fun step ->
      let name, attrs = op_fields step in
      ignore (Builder.build b ~attrs name))
    steps;
  Verifier.verify m;
  m

let steps_of (m : Core.op) =
  if m.Core.o_name <> "builtin.module" then
    D.errorf ~loc:m.Core.o_loc
      "a transform script must be a builtin.module (found %s)" m.Core.o_name;
  List.map step_of_op (Core.ops_of_block (Core.module_block m))

let print m = Printer.op_to_string m ^ "\n"

let parse ?file src =
  let m = Parser.parse_module ?file src in
  (* Reject payload IR handed in by mistake: every op must be a
     transform op (steps_of also verifies each). *)
  ignore (steps_of m);
  m

let parse_steps ?file src = steps_of (parse ?file src)
