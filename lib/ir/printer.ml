(* A hand-written emitter: every token goes straight into one [Buffer.t]
   with [Buffer.add_string]/[add_char], and types, attributes and maps
   append themselves through their own [add_to_buffer]. The output must
   keep the bytes that scripts/mlt_opt_digests.txt and the cache-identity
   pins recorded, quirks included: the double space before a [loc(]
   trailer after an [outs(...)] group. Float constants print exactly
   ([float_text]); 0.0 and 5.3, the only ones the recorded corpus holds,
   print as the earlier [%g] printed them. *)

(* A float constant as the shortest of [%.15g], [%.16g] and [%.17g] that
   reads back to the same bits, so text round trips keep every constant.
   [-0.0] keeps its sign, which [-0] would lose to the integer reading,
   and infinities print as the parser's [infinity]/[-infinity]. *)
let float_text f =
  if f = 0. && Float.sign_bit f then "-0.0"
  else if Float.is_finite f then
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if Int64.(equal (bits_of_float (float_of_string s)) (bits_of_float f))
      then Some s
      else None
    in
    match List.find_map exact [ 15; 16 ] with
    | Some s -> s
    | None -> Printf.sprintf "%.17g" f
  else if Float.is_nan f then Printf.sprintf "%g" f
  else if f > 0. then "infinity"
  else "-infinity"

type env = {
  names : (int, string) Hashtbl.t;  (** value id -> printed name *)
  used : (string, unit) Hashtbl.t;
  next_suffix : (string, int) Hashtbl.t;
      (** per-base resume point for suffix probing: suffixes below it are
          all taken (names are never released within an env), so a module
          with thousands of clones of the same value hints prints in
          linear instead of quadratic time, with byte-identical output *)
  mutable counter : int;
  debug_locs : bool;
      (** append [loc(...)] trailers; off by default so the output stays
          parseable (the round-trip property the tests enforce) *)
  b : Buffer.t;
}

let create_env ?(debug_locs = false) b =
  {
    names = Hashtbl.create 64;
    used = Hashtbl.create 64;
    next_suffix = Hashtbl.create 64;
    counter = 0;
    debug_locs;
    b;
  }

let add_string env s = Buffer.add_string env.b s
let add_char env c = Buffer.add_char env.b c
let add_int env i = Buffer.add_string env.b (string_of_int i)

let add_pad env indent =
  for _ = 1 to indent do
    Buffer.add_char env.b ' '
  done

(* [loc("gemm.c":4:3)] for frontend ops; derived ops name the pattern and
   the source locations its rewrite consumed, newest derivation first. *)
let add_loc_trailer env (op : Core.op) =
  let known = Support.Loc.is_known op.Core.o_loc in
  match op.Core.o_prov with
  | [] ->
      if known then begin
        add_string env " loc(";
        add_string env (Support.Loc.to_string op.Core.o_loc);
        add_char env ')'
      end
  | dvs ->
      add_string env " loc(";
      List.iteri
        (fun i (d : Core.derivation) ->
          if i > 0 then add_string env " | ";
          add_string env "derived \"";
          add_string env d.Core.dv_pattern;
          add_string env "\" from [";
          List.iteri
            (fun j l ->
              if j > 0 then add_string env ", ";
              add_string env (Support.Loc.to_string l))
            d.Core.dv_locs;
          add_char env ']')
        dvs;
      add_char env ')'

(* The printed name of [v], assigned on first sight. A use before its
   definition (never in verified IR) still prints something. *)
let assign_name env (v : Core.value) =
  match Hashtbl.find_opt env.names v.v_id with
  | Some n -> n
  | None ->
      let base =
        match v.v_hint with
        | Some h when h <> "" -> h
        | _ ->
            let n = string_of_int env.counter in
            env.counter <- env.counter + 1;
            n
      in
      let name =
        if not (Hashtbl.mem env.used base) then base
        else
          let rec try_suffix i =
            let cand = base ^ "_" ^ string_of_int i in
            if Hashtbl.mem env.used cand then try_suffix (i + 1)
            else begin
              Hashtbl.replace env.next_suffix base (i + 1);
              cand
            end
          in
          try_suffix
            (Option.value ~default:0 (Hashtbl.find_opt env.next_suffix base))
      in
      Hashtbl.replace env.used name ();
      Hashtbl.replace env.names v.v_id name;
      name

let add_name env name =
  add_char env '%';
  add_string env name

let add_value env v = add_name env (assign_name env v)

let add_comma_list env add xs =
  List.iteri
    (fun i x ->
      if i > 0 then add_string env ", ";
      add x)
    xs

let add_values env vs = add_comma_list env (add_value env) vs
let add_typ env t = Typ.add_to_buffer env.b t
let add_attr env a = Attr.add_to_buffer env.b a

let add_types env (vs : Core.value list) =
  add_comma_list env (fun (v : Core.value) -> add_typ env v.v_typ) vs

(* Print an affine map applied to operand values as inline index
   expressions, e.g. the map (d0, d1) -> (2*d0 + 1, d1) over [%i; %j]
   prints as "2 * %i + 1, %j". *)
let add_applied_expr env (operands : Core.value array) e =
  let module E = Affine_expr in
  let prec = function
    | E.Dim _ | E.Sym _ | E.Const _ -> 3
    | E.Mul _ | E.Floor_div _ | E.Mod _ -> 2
    | E.Add _ -> 1
  in
  let rec go req e =
    let wrap = prec e < req in
    if wrap then add_char env '(';
    (match e with
    | E.Dim i -> add_value env operands.(i)
    | E.Sym i ->
        add_char env 's';
        add_int env i
    | E.Const c -> add_int env c
    | E.Add (a, E.Const c) when c < 0 ->
        go 1 a;
        add_string env " - ";
        add_int env (-c)
    | E.Add (a, c) -> binary 1 a " + " 1 c
    | E.Mul (a, c) -> binary 2 a " * " 2 c
    | E.Floor_div (a, c) -> binary 3 a " floordiv " 3 c
    | E.Mod (a, c) -> binary 3 a " mod " 3 c);
    if wrap then add_char env ')'
  and binary pa a op pc c =
    go pa a;
    add_string env op;
    go pc c
  in
  go 0 e

let add_applied_map env (map : Affine_map.t) operands =
  add_comma_list env (add_applied_expr env operands) map.Affine_map.exprs

let access_to_string memref operands exprs =
  let env = create_env (Buffer.create 64) in
  add_value env memref;
  add_char env '[';
  add_comma_list env (add_applied_expr env operands) exprs;
  add_char env ']';
  Buffer.contents env.b

(* ins(%a, %b : t, t) outs(%c : t) used by the linalg forms. *)
let add_ins_outs env ~ins ~outs =
  let group kw vs =
    if vs <> [] then begin
      add_string env kw;
      add_char env '(';
      add_values env vs;
      add_string env " : ";
      add_types env vs;
      add_string env ") "
    end
  in
  group "ins" ins;
  group "outs" outs

let sorted_attrs (op : Core.op) = List.sort compare op.o_attrs

let add_results env results =
  if results <> [] then begin
    add_values env results;
    add_string env " = "
  end

let add_close env indent =
  add_pad env indent;
  add_char env '}'

let rec add_op env indent (op : Core.op) =
  add_op_body env indent op;
  if env.debug_locs then add_loc_trailer env op

and add_op_body env indent (op : Core.op) =
  Array.iter (fun r -> ignore (assign_name env r)) op.o_results;
  let results = Array.to_list op.o_results in
  let operands = Array.to_list op.o_operands in
  add_pad env indent;
  match op.o_name with
  | "builtin.module" ->
      add_string env "builtin.module {\n";
      add_block_contents env (indent + 2) (Core.single_block op 0);
      add_close env indent
  | "func.func" ->
      let entry = Core.func_entry op in
      add_string env "func.func @";
      add_string env (Core.func_name op);
      add_char env '(';
      Array.iteri
        (fun i (a : Core.value) ->
          if i > 0 then add_string env ", ";
          add_value env a;
          add_string env ": ";
          add_typ env a.v_typ)
        entry.b_args;
      add_string env ") {\n";
      add_block_contents env (indent + 2) entry;
      add_close env indent
  | ("func.return" | "affine.yield" | "scf.yield") as name ->
      add_string env name;
      if operands <> [] then begin
        add_char env ' ';
        add_values env operands
      end
  | "affine.for" ->
      let iv = (Core.single_block op 0).b_args.(0) in
      let lb_map = Attr.get_map (Core.attr op "lower_bound") in
      let ub_map = Attr.get_map (Core.attr op "upper_bound") in
      let step = Attr.get_int (Core.attr op "step") in
      (* Operand layout: lb map operands then ub map operands. *)
      let lb_operands = Array.sub op.o_operands 0 lb_map.Affine_map.n_dims in
      let ub_operands =
        Array.sub op.o_operands lb_map.Affine_map.n_dims
          ub_map.Affine_map.n_dims
      in
      let bound kw map operands =
        if Affine_map.n_results map = 1 then add_applied_map env map operands
        else begin
          add_string env kw;
          add_char env '(';
          add_applied_map env map operands;
          add_char env ')'
        end
      in
      add_string env "affine.for ";
      add_value env iv;
      add_string env " = ";
      bound "max" lb_map lb_operands;
      add_string env " to ";
      bound "min" ub_map ub_operands;
      if step <> 1 then begin
        add_string env " step ";
        add_int env step
      end;
      add_string env " {\n";
      add_block_contents env (indent + 2) (Core.single_block op 0);
      add_close env indent
  | "affine.load" ->
      let map = Attr.get_map (Core.attr op "map") in
      let memref = op.o_operands.(0) in
      add_results env results;
      add_string env "affine.load ";
      add_value env memref;
      add_char env '[';
      add_applied_map env map
        (Array.sub op.o_operands 1 (Array.length op.o_operands - 1));
      add_string env "] : ";
      add_typ env memref.v_typ
  | "affine.store" ->
      let map = Attr.get_map (Core.attr op "map") in
      let value = op.o_operands.(0) in
      let memref = op.o_operands.(1) in
      (* Name the memref before the value: for a use before its
         definition the numbering depends on this order, and the pinned
         digests were recorded with it. *)
      let memref_name = assign_name env memref in
      add_string env "affine.store ";
      add_value env value;
      add_string env ", ";
      add_name env memref_name;
      add_char env '[';
      add_applied_map env map
        (Array.sub op.o_operands 2 (Array.length op.o_operands - 2));
      add_string env "] : ";
      add_typ env memref.v_typ
  | "affine.apply" ->
      add_results env results;
      add_string env "affine.apply ";
      add_applied_map env (Attr.get_map (Core.attr op "map")) op.o_operands
  | "affine.matmul" | "blas.sgemm" | "blas.sgemv" | "blas.stranspose"
  | "blas.sreshape_copy" | "blas.sconv2d" ->
      add_string env op.o_name;
      add_char env ' ';
      add_values env operands;
      add_string env " : ";
      add_types env operands;
      if op.o_name <> "affine.matmul" then
        List.iter
          (fun (k, a) ->
            add_char env ' ';
            add_string env k;
            add_string env " = ";
            add_attr env a)
          (sorted_attrs op)
  | "scf.for" ->
      let iv = (Core.single_block op 0).b_args.(0) in
      (* Named step, ub, lb, then the induction variable (see
         affine.store). *)
      let step = assign_name env op.o_operands.(2) in
      let ub = assign_name env op.o_operands.(1) in
      let lb = assign_name env op.o_operands.(0) in
      add_string env "scf.for ";
      add_value env iv;
      add_string env " = ";
      add_name env lb;
      add_string env " to ";
      add_name env ub;
      add_string env " step ";
      add_name env step;
      add_string env " {\n";
      add_block_contents env (indent + 2) (Core.single_block op 0);
      add_close env indent
  | "arith.constant" ->
      add_results env results;
      add_string env "arith.constant ";
      (match Core.attr op "value" with
      | Attr.Float f -> add_string env (float_text f)
      | Attr.Int i -> add_int env i
      | a -> add_attr env a);
      add_string env " : ";
      add_typ env op.o_results.(0).v_typ
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.addi"
  | "arith.subi" | "arith.muli" ->
      add_results env results;
      add_string env op.o_name;
      add_char env ' ';
      add_values env operands;
      add_string env " : ";
      add_typ env op.o_results.(0).v_typ
  | "memref.alloc" ->
      add_results env results;
      add_string env "memref.alloc() : ";
      add_typ env op.o_results.(0).v_typ
  | "memref.dealloc" ->
      add_string env "memref.dealloc ";
      add_value env op.o_operands.(0);
      add_string env " : ";
      add_typ env op.o_operands.(0).v_typ
  | "linalg.matmul" | "linalg.matvec" | "linalg.conv2d_nchw" ->
      let n_in = Array.length op.o_operands - 1 in
      add_string env op.o_name;
      add_char env ' ';
      add_ins_outs env
        ~ins:(Array.to_list (Array.sub op.o_operands 0 n_in))
        ~outs:[ op.o_operands.(n_in) ]
  | ("linalg.transpose" | "linalg.reshape") as name ->
      add_string env name;
      add_char env ' ';
      add_ins_outs env ~ins:[ op.o_operands.(0) ] ~outs:[ op.o_operands.(1) ];
      let key =
        if name = "linalg.transpose" then "permutation" else "grouping"
      in
      add_string env key;
      add_string env " = ";
      add_attr env (Core.attr op key)
  | "linalg.fill" ->
      add_string env "linalg.fill value = ";
      add_attr env (Core.attr op "value");
      add_char env ' ';
      add_ins_outs env ~ins:[] ~outs:[ op.o_operands.(0) ]
  | "linalg.contract" ->
      let n_in = Array.length op.o_operands - 1 in
      add_string env "linalg.contract indexing_maps = ";
      add_attr env (Core.attr op "indexing_maps");
      add_char env ' ';
      add_ins_outs env
        ~ins:(Array.to_list (Array.sub op.o_operands 0 n_in))
        ~outs:[ op.o_operands.(n_in) ]
  | name ->
      (* Generic form. *)
      add_results env results;
      add_char env '"';
      add_string env name;
      add_string env "\"(";
      add_values env operands;
      add_char env ')';
      if op.o_attrs <> [] then begin
        add_string env " {";
        add_comma_list env
          (fun (k, a) ->
            add_string env k;
            add_string env " = ";
            add_attr env a)
          (sorted_attrs op);
        add_char env '}'
      end;
      Array.iter
        (fun (r : Core.region) ->
          add_string env " ({\n";
          List.iter (add_block_contents env (indent + 2)) r.r_blocks;
          add_pad env indent;
          add_string env "})")
        op.o_regions;
      add_string env " : (";
      add_types env operands;
      add_string env ") -> (";
      add_types env results;
      add_char env ')'

and add_block_contents env indent (b : Core.block) =
  List.iter
    (fun op ->
      add_op env indent op;
      add_char env '\n')
    (Core.ops_of_block b)

let op_to_string ?debug_locs op =
  let env = create_env ?debug_locs (Buffer.create 1024) in
  add_op env 0 op;
  Buffer.contents env.b

let debug_value v =
  match v.Core.v_hint with
  | Some h -> Printf.sprintf "%%%s<%d>" h v.Core.v_id
  | None -> Printf.sprintf "%%<%d>" v.Core.v_id
