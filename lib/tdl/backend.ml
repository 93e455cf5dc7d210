open Ir
module D = Support.Diag
module A = Affine.Affine_ops
module Ac = Matchers.Access
module L = Linalg.Linalg_ops

type target = To_linalg | To_affine_matmul

(* ---- pattern-side preparation --------------------------------------- *)

type prepared = {
  vars : string list;  (** index variables, in order of appearance *)
  tensors : string list;  (** pattern tensor names: [out; in1; in2] *)
  mk_pattern :
    Ac.ctx ->
    Ac.stmt_pattern
    * (string * Ac.placeholder) list
    * (string * Ac.array_placeholder) list;
  accesses : (string * Tdl_ast.iexpr list) list;
      (** (tensor, subscripts) for the coverage checks *)
}

let prepare (stmt : Tdl_ast.stmt) =
  let out, in1, in2 =
    match (stmt.op, stmt.rhs) with
    | Tdl_ast.Accumulate, Tdl_ast.R_mul (a, b) -> (stmt.lhs, a, b)
    | _ -> D.errorf "backend: pattern must be 'out += a * b'"
  in
  let vars = Tdl_ast.stmt_vars stmt in
  let tensors = [ out.tensor; in1.tensor; in2.tensor ] in
  if List.length (List.sort_uniq compare tensors) <> 3 then
    D.errorf "backend: pattern tensors must be distinct";
  let mk_pattern ctx =
    let phs = List.map (fun v -> (v, Ac.placeholder ctx)) vars in
    let aphs = List.map (fun t -> (t, Ac.array_placeholder ctx)) tensors in
    let pexpr_of (e : Tdl_ast.iexpr) =
      List.fold_left
        (fun acc (v, k) ->
          let ph = List.assoc v phs in
          Ac.padd acc (Ac.term ~coeff:k ph))
        (Ac.pconst e.ix_const) e.ix_terms
    in
    let access_of (r : Tdl_ast.ref_) =
      Ac.access (List.assoc r.tensor aphs) (List.map pexpr_of r.indices)
    in
    ( Ac.Contraction
        { out = access_of out; in1 = access_of in1; in2 = access_of in2 },
      phs,
      aphs )
  in
  let accesses =
    [
      (out.tensor, out.indices);
      (in1.tensor, in1.indices);
      (in2.tensor, in2.indices);
    ]
  in
  { vars; tensors; mk_pattern; accesses }

(* ---- match-time validation ------------------------------------------ *)

(* Every subscript must span its memref dimension exactly. *)
let coverage_ok ~extent_of ~memref_of (accesses : (string * Tdl_ast.iexpr list) list) =
  List.for_all
    (fun (tensor, subs) ->
      let memref : Core.value = memref_of tensor in
      match Typ.static_shape memref.Core.v_typ with
      | None -> false
      | Some shape ->
          List.length shape = List.length subs
          && List.for_all2
               (fun dim_extent (e : Tdl_ast.iexpr) ->
                 let min_v = e.ix_const in
                 let max_v =
                   List.fold_left
                     (fun acc (v, k) ->
                       let ext = extent_of v in
                       if k >= 0 then acc + (k * (ext - 1)) else acc)
                     e.ix_const e.ix_terms
                 in
                 let all_nonneg = List.for_all (fun (_, k) -> k > 0) e.ix_terms in
                 all_nonneg && min_v = 0 && max_v + 1 = dim_extent)
               shape subs)
    accesses

(* ---- shape inference over builder steps ------------------------------ *)

let grouping_rank g = List.length (List.concat g)

let infer_shapes (steps : Tds.builder list) (known : (string, int list) Hashtbl.t) =
  let get name = Hashtbl.find_opt known name in
  let put name shape =
    match get name with
    | Some s when s <> shape ->
        D.errorf "backend: inconsistent shapes inferred for %s" name
    | _ -> Hashtbl.replace known name shape
  in
  let step_pass (b : Tds.builder) =
    match b with
    | Tds.Transpose { input; output; perm } -> (
        let perm = Array.of_list perm in
        match (get input, get output) with
        | Some s, _ -> put output (L.transposed_shape perm s)
        | None, Some s ->
            let inv = Affine_map.inverse_permutation perm in
            put input (L.transposed_shape inv s)
        | None, None -> ())
    | Tds.Reshape { input; output; grouping } -> (
        let collapse hi =
          List.map
            (fun grp ->
              List.fold_left (fun acc d -> acc * List.nth hi d) 1 grp)
            grouping
        in
        match (get input, get output) with
        | Some s, _ when List.length s = grouping_rank grouping ->
            put output (collapse s)
        | None, Some s when List.length s = grouping_rank grouping ->
            put input (collapse s)
        | _ -> ())
    | Tds.Matmul { in1; in2; output } -> (
        match (get in1, get in2) with
        | Some [ m; _ ], Some [ _; n ] -> put output [ m; n ]
        | _ -> ())
    | Tds.Matvec { in1; in2 = _; output; transpose } -> (
        match get in1 with
        | Some [ m; n ] -> put output [ (if transpose then n else m) ]
        | _ -> ())
    | Tds.Conv2d _ -> ()
  in
  (* A couple of forward/backward sweeps reach the fixpoint for any
     pipeline TTGT synthesis produces. *)
  for _ = 1 to 4 do
    List.iter step_pass steps;
    List.iter step_pass (List.rev steps)
  done;
  List.iter
    (fun b ->
      List.iter
        (fun name ->
          if get name = None then
            D.errorf "backend: could not infer a shape for %s" name)
        (Tds.builder_output b :: Tds.builder_inputs b))
    steps

(* ---- code emission ---------------------------------------------------- *)

let emit_steps ~target b (steps : Tds.builder list)
    (env : (string, Core.value) Hashtbl.t)
    (shapes : (string, int list) Hashtbl.t) =
  let resolve name =
    match Hashtbl.find_opt env name with
    | Some v -> v
    | None ->
        let shape = Hashtbl.find shapes name in
        let v =
          Std_dialect.Memref_ops.alloc b ~hint:(String.lowercase_ascii name)
            (Typ.memref shape Typ.F32)
        in
        Hashtbl.replace env name v;
        v
  in
  List.iter
    (fun (step : Tds.builder) ->
      match (target, step) with
      | To_affine_matmul, Tds.Matmul { in1; in2; output } ->
          ignore (A.matmul b (resolve in1) (resolve in2) (resolve output))
      | To_affine_matmul, _ ->
          D.errorf
            "backend: -raise-affine-to-affine only supports pure matmul \
             tactics"
      | To_linalg, Tds.Transpose { input; output; perm } ->
          ignore
            (L.transpose b ~perm:(Array.of_list perm) (resolve input)
               (resolve output))
      | To_linalg, Tds.Reshape { input; output; grouping } ->
          ignore (L.reshape b ~grouping (resolve input) (resolve output))
      | To_linalg, Tds.Matmul { in1; in2; output } ->
          ignore (L.matmul b (resolve in1) (resolve in2) (resolve output))
      | To_linalg, Tds.Matvec { in1; in2; output; transpose } ->
          let op = L.matvec b (resolve in1) (resolve in2) (resolve output) in
          if transpose then Core.set_attr op "transpose" (Attr.Bool true)
      | To_linalg, Tds.Conv2d { in1; in2; output } ->
          ignore (L.conv2d_nchw b (resolve in1) (resolve in2) (resolve output)))
    steps

(* ---- the compiled pattern --------------------------------------------- *)

(* The compile-time errors name no position of their own: one without a
   location is re-raised at the tactic's [def], as [Frontend.lower]
   does. *)
let compile ?(target = To_linalg) (t : Tds.tactic) =
  let prepared =
    try
      let prepared = prepare t.pattern in
      (if target = To_affine_matmul then
         match t.builders with
         | [ Tds.Matmul _ ] -> ()
         | _ ->
             D.errorf
               "backend: tactic %s cannot target the affine matmul raising"
               t.name);
      prepared
    with D.Error (loc, msg) when not (Support.Loc.is_known loc) ->
      D.error ~loc:t.loc msg
  in
  let depth = List.length prepared.vars in
  (* A nest of the right depth that then fails a later stage is a
     near-miss worth a structured remark ([--remarks=missed]); nests of
     the wrong depth are not reported — every tactic probing every loop
     would drown the signal. *)
  let apply (ctx : Rewriter.ctx) (op : Core.op) =
    let miss stage msg =
      if Remark.enabled () then
        Remark.remark ~loc:op.Core.o_loc ~pattern:t.name ~stage Remark.Missed
          "%s" msg;
      false
    in
    match Matchers.Structural.matched_nest ~depth op with
    | None -> false
    | Some loops ->
        if not (List.for_all A.for_normalized loops) then
          miss "control-flow"
            "loop nest is not normalized (constant zero-based bounds with \
             unit step required)"
        else begin
          let innermost = List.nth loops (depth - 1) in
          let actx = Ac.create_ctx () in
          let pat, phs, aphs = prepared.mk_pattern actx in
          if not (Ac.match_block actx pat (A.for_body innermost)) then
            match Ac.last_reject actx with
            | Some Ac.Unify ->
                miss "access-unification"
                  "statement ops match, but the array subscripts do not \
                   unify with the pattern accesses"
            | _ ->
                miss "op-chain"
                  "innermost statement is not a single out += in1 * in2 \
                   contraction"
          else begin
            (* All extents known, and the binding covers exactly the nest. *)
            let extents =
              List.map (fun (v, ph) -> (v, Ac.solution_extent actx ph)) phs
            in
            if List.exists (fun (_, e) -> e = None) extents then
              miss "coverage"
                "an induction variable's loop extent is not a known constant"
            else begin
              let extent_of v = Option.get (List.assoc v extents) in
              let nest_ivs = Affine.Loops.nest_ivs loops in
              let bound_ivs = List.map (fun (_, ph) -> Ac.iv_of actx ph) phs in
              if
                not
                  (List.for_all
                     (fun iv -> List.exists (Core.value_equal iv) bound_ivs)
                     nest_ivs)
              then
                miss "coverage"
                  "a loop of the nest is not bound by any pattern index"
              else if
                not
                  (coverage_ok ~extent_of
                     ~memref_of:(fun tensor ->
                       Ac.array_of actx (List.assoc tensor aphs))
                     prepared.accesses)
              then
                miss "coverage"
                  "the accesses do not span their arrays' full extents"
              else begin
                (* Build the replacement. *)
                let env = Hashtbl.create 8 in
                let shapes = Hashtbl.create 8 in
                List.iter
                  (fun (tensor, aph) ->
                    let memref = Ac.array_of actx aph in
                    Hashtbl.replace env tensor memref;
                    match Typ.static_shape memref.Core.v_typ with
                    | Some s -> Hashtbl.replace shapes tensor s
                    | None -> ())
                  aphs;
                infer_shapes t.builders shapes;
                emit_steps ~target ctx.builder t.builders env shapes;
                Core.erase_op (List.hd loops);
                true
              end
            end
          end
        end
  in
  let generated_of_builder = function
    | Tds.Transpose _ -> "linalg.transpose"
    | Tds.Reshape _ -> "linalg.reshape"
    | Tds.Matmul _ -> (
        match target with
        | To_linalg -> "linalg.matmul"
        | To_affine_matmul -> "affine.matmul")
    | Tds.Matvec _ -> "linalg.matvec"
    | Tds.Conv2d _ -> "linalg.conv2d_nchw"
  in
  let generated_ops =
    List.sort_uniq String.compare
      ("memref.alloc" :: List.map generated_of_builder t.builders)
  in
  (* The apply function's first gate is [matched_nest ~depth], which
     requires the perfect nest rooted at [op] to have exactly [depth]
     loops ([Loops.perfect_nest] treats "affine.yield" as the only
     invisible op) — declare exactly that, so the compiled dispatch tree
     probes the nest spine once per root op and skips every tactic whose
     depth cannot match. Wrong-depth nests produce no near-miss remarks
     (see the comment above [apply]), so pruning them is observationally
     identical. *)
  let prefix =
    Rewriter.prefix ~nest_depth:depth ~nest_ignore:[ "affine.yield" ] ()
  in
  Rewriter.pattern ~name:t.name ~roots:(Rewriter.Roots t.roots) ~prefix
    ~generated_ops apply

let compile_tdl ?target src =
  List.map (compile ?target) (Frontend.lower_source src)
