type ctx = { root : Core.op; builder : Builder.t }

type roots = Any | Roots of string list

(* A structural prefix is a conservative, cheaply checkable necessary
   condition for a pattern to match, evaluated by the compiled dispatch
   tree (see [Frozen]) before [p_apply] is ever invoked. Like [roots],
   it must be an over-approximation: the apply function still guards on
   the op itself, so dropping the prefix never changes results — only
   match-attempt counts. *)
type prefix = {
  pre_operands : int option;  (** exact operand count *)
  pre_regions : int option;  (** exact region count *)
  pre_nest : (int * string list) option;
      (** exact perfect-nest depth (root op included) and the op names
          ignored when deciding "sole child" — sorted, deduplicated *)
}

let prefix ?operands ?regions ?nest_depth ?(nest_ignore = []) () =
  (match (nest_ignore, nest_depth) with
  | _ :: _, None ->
      invalid_arg "Rewriter.prefix: nest_ignore without nest_depth"
  | _ -> ());
  let pre_nest =
    Option.map
      (fun d ->
        if d < 1 then invalid_arg "Rewriter.prefix: nest_depth must be >= 1";
        (d, List.sort_uniq String.compare nest_ignore))
      nest_depth
  in
  { pre_operands = operands; pre_regions = regions; pre_nest }

type pattern = {
  p_name : string;
  p_benefit : int;
  p_roots : roots;
  p_prefix : prefix option;
  p_apply : ctx -> Core.op -> bool;
}

let pattern ~name ?(benefit = 1) ?(roots = Any) ?prefix apply =
  {
    p_name = name;
    p_benefit = benefit;
    p_roots = roots;
    p_prefix = prefix;
    p_apply = apply;
  }

let max_iterations = 10_000

(* ---- counters ------------------------------------------------------------ *)

(* Counts belong to one driver run: slot [i] of [run_attempts]/[run_hits]
   counts pattern [i] of the frozen set. A run publishes its counts once,
   when it ends (also when it raises), to the running domain's totals and
   to the tallies open on that domain, so the per-attempt path bumps two
   array slots and nothing else. *)
type run = {
  run_patterns : pattern array;
  run_attempts : int array;
  run_hits : int array;
}

type totals = { mutable tot_attempts : int; mutable tot_rewrites : int }

let totals_key : totals Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tot_attempts = 0; tot_rewrites = 0 })

let counter_totals () =
  let t = Domain.DLS.get totals_key in
  (t.tot_attempts, t.tot_rewrites)

type pattern_stat = {
  ps_name : string;
  ps_attempts : int;
  ps_hits : int;
  ps_activations : int;
}

module String_map = Map.Make (String)

type tally = {
  mutable ta_attempts : int;
  mutable ta_rewrites : int;
  mutable ta_rows : pattern_stat String_map.t;
}

let tally () = { ta_attempts = 0; ta_rewrites = 0; ta_rows = String_map.empty }

(* Rows merge by pattern name: a pass may run several drivers, and a set
   may hold two patterns of one name. *)
let add_run t r =
  Array.iteri
    (fun i p ->
      let a = r.run_attempts.(i) and h = r.run_hits.(i) in
      t.ta_attempts <- t.ta_attempts + a;
      t.ta_rewrites <- t.ta_rewrites + h;
      t.ta_rows <-
        String_map.update p.p_name
          (fun row ->
            let s =
              Option.value row
                ~default:
                  { ps_name = p.p_name; ps_attempts = 0; ps_hits = 0;
                    ps_activations = 0 }
            in
            Some
              { s with
                ps_attempts = s.ps_attempts + a;
                ps_hits = s.ps_hits + h;
                ps_activations = s.ps_activations + 1 })
          t.ta_rows)
    r.run_patterns

let tallies : run Support.Sink_stack.t = Support.Sink_stack.create ()
let with_tally t f = Support.Sink_stack.with_sink tallies (add_run t) f

let tally_counts t =
  (t.ta_attempts, t.ta_rewrites, List.map snd (String_map.bindings t.ta_rows))

let publish r =
  let t = Domain.DLS.get totals_key in
  Array.iter (fun a -> t.tot_attempts <- t.tot_attempts + a) r.run_attempts;
  Array.iter (fun h -> t.tot_rewrites <- t.tot_rewrites + h) r.run_hits;
  ignore (Support.Sink_stack.dispatch tallies r : bool)

(* Provenance: cap how many distinct source locations a derivation
   records — a consumed loop nest contributes a handful, and unbounded
   chains would bloat ops rewritten many times. *)
let max_src_locs = 8

let try_apply run i p ctx op =
  run.run_attempts.(i) <- run.run_attempts.(i) + 1;
  (* Observe the attempt through the listener stack: ops the rewrite
     inserts get stamped with a derivation on success, and ops it erases
     contribute their known source locations (walking the subtree at
     erase time, while it is still intact). *)
  let inserted_rev = ref [] in
  (* Allocated on the first insertion only: the overwhelmingly common
     attempt fails without inserting anything, and this prologue runs
     once per attempt on every op a driver visits. *)
  let inserted_ids : (int, unit) Hashtbl.t option ref = ref None in
  let inserted_tbl () =
    match !inserted_ids with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        inserted_ids := Some tbl;
        tbl
  in
  let was_inserted id =
    match !inserted_ids with None -> false | Some tbl -> Hashtbl.mem tbl id
  in
  let src_locs_rev =
    ref (if Support.Loc.is_known op.Core.o_loc then [ op.Core.o_loc ] else [])
  in
  let note_src_loc l =
    if
      Support.Loc.is_known l
      && List.length !src_locs_rev < max_src_locs
      && not (List.exists (Support.Loc.equal l) !src_locs_rev)
    then src_locs_rev := l :: !src_locs_rev
  in
  let listener =
    {
      Core.on_op_inserted =
        (fun o ->
          if not (was_inserted o.Core.o_id) then begin
            Hashtbl.replace (inserted_tbl ()) o.Core.o_id ();
            inserted_rev := o :: !inserted_rev
          end);
      on_op_erased =
        (fun erased ->
          Core.walk erased (fun o ->
              if not (was_inserted o.Core.o_id) then
                note_src_loc o.Core.o_loc));
      on_operand_update = ignore;
    }
  in
  let applied =
    try Core.with_listener listener (fun () -> p.p_apply ctx op) with
    | Support.Diag.Error (loc, msg)
      when (not (Support.Loc.is_known loc))
           && Support.Loc.is_known op.Core.o_loc ->
        (* Attribute location-less mid-rewrite failures to the matched op. *)
        raise (Support.Diag.Error (op.Core.o_loc, msg))
  in
  if applied then begin
    run.run_hits.(i) <- run.run_hits.(i) + 1;
    let srcs = List.rev !src_locs_rev in
    let dv = { Core.dv_pattern = p.p_name; dv_locs = srcs } in
    List.iter
      (fun o ->
        if o.Core.o_parent != None then begin
          Core.add_derivation o dv;
          if not (Support.Loc.is_known o.Core.o_loc) then
            match srcs with l :: _ -> Core.set_loc o l | [] -> ()
        end)
      (List.rev !inserted_rev)
  end;
  if Trace.enabled () then begin
    let args =
      [
        ("op", Trace.A_str op.Core.o_name);
        ("hit", Trace.A_bool applied);
      ]
    in
    let args =
      if Support.Loc.is_known op.Core.o_loc then
        args @ [ ("loc", Trace.A_str (Support.Loc.to_string op.Core.o_loc)) ]
      else args
    in
    Trace.instant ~cat:"pattern" ~args p.p_name
  end;
  if applied && Remark.enabled () then
    Remark.remark ~loc:op.Core.o_loc ~pattern:p.p_name Remark.Applied
      "rewrote %s" op.Core.o_name;
  applied

(* Stable: equal-benefit patterns keep their registration order, which is
   what makes greedy application deterministic across driver variants. *)
let sort_by_benefit patterns =
  List.stable_sort (fun a b -> Int.compare b.p_benefit a.p_benefit) patterns

(* ---- compiled matcher automaton ----------------------------------------- *)

(* Each op-name bucket's declared prefixes compile into one shared decision
   tree: the driver evaluates every structural feature at most once per op
   visit — however many patterns constrain it — and only the surviving
   leaf's candidates reach [try_apply]. Tests are exact-value, so a node
   is a branch table plus a default for unconstrained values; patterns
   that don't constrain a feature are replicated into every branch *and*
   the default, which preserves the global benefit order inside each leaf
   (all lists are filtered views of one benefit-sorted list). *)
type feature =
  | F_operands
  | F_regions
  | F_nest of string list  (** keyed by the (sorted) ignore set *)

type 'a dtree =
  | Leaf of 'a list
  | Test of {
      t_feature : feature;
      t_cap : int;
          (** nest probes stop here: 1 + the deepest declared depth, so a
              million-op spine costs O(max declared depth), not O(spine) *)
      t_branches : (int * 'a dtree) list;
      t_default : 'a dtree;
    }

let ignore_equal = List.equal String.equal

let prefix_constraint (_, p) f =
  match p.p_prefix with
  | None -> None
  | Some pre -> (
      match f with
      | F_operands -> pre.pre_operands
      | F_regions -> pre.pre_regions
      | F_nest ignore -> (
          match pre.pre_nest with
          | Some (d, ig) when ignore_equal ig ignore -> Some d
          | _ -> None))

(* Feature evaluation order: cheap arity tests first, then one nest probe
   per distinct ignore set (in first-declaration order — in practice one). *)
let features_of ps =
  let nest_keys =
    List.fold_left
      (fun acc (_, p) ->
        match p.p_prefix with
        | Some { pre_nest = Some (_, ig); _ }
          when not (List.exists (ignore_equal ig) acc) ->
            ig :: acc
        | _ -> acc)
      [] ps
    |> List.rev
  in
  F_operands :: F_regions :: List.map (fun ig -> F_nest ig) nest_keys

let rec build_tree features ps =
  match features with
  | [] -> Leaf ps
  | f :: rest ->
      let values =
        List.filter_map (fun p -> prefix_constraint p f) ps
        |> List.sort_uniq Int.compare
      in
      if values = [] then build_tree rest ps
      else
        let branches =
          List.map
            (fun v ->
              let survivors =
                List.filter
                  (fun p ->
                    match prefix_constraint p f with
                    | None -> true
                    | Some d -> Int.equal d v)
                  ps
              in
              (v, build_tree rest survivors))
            values
        in
        let default =
          build_tree rest
            (List.filter (fun p -> prefix_constraint p f = None) ps)
        in
        let cap =
          match f with
          | F_nest _ -> List.fold_left max 0 values + 1
          | F_operands | F_regions -> 0
        in
        Test { t_feature = f; t_cap = cap; t_branches = branches;
               t_default = default }

(* The sole op of [b] whose name is not in [ignore], scanning with early
   exit: a second survivor ends the walk immediately, so this is O(1) in
   practice (the ignored terminator sits at the block's tail). *)
let sole_child ignore b =
  let rec go acc = function
    | [] -> acc
    | (o : Core.op) :: tl ->
        if List.exists (fun n -> String.equal n o.Core.o_name) ignore then
          go acc tl
        else ( match acc with None -> go (Some o) tl | Some _ -> None)
  in
  go None (Core.ops_of_block b)

(* Perfect-nest depth, mirroring [Affine.Loops.perfect_nest] generically:
   the chain of same-named ops where each link is the sole non-ignored op
   of its parent's single region's single block. Never descends past
   [cap] (all exact-depth tests beyond the deepest declared depth fail
   identically at [cap]). *)
let rec measured_nest_depth ignore cap depth (op : Core.op) =
  if depth >= cap then depth
  else
    match op.Core.o_regions with
    | [| r |] -> (
        match r.Core.r_blocks with
        | [ b ] -> (
            match sole_child ignore b with
            | Some inner when String.equal inner.Core.o_name op.Core.o_name
              ->
                measured_nest_depth ignore cap (depth + 1) inner
            | _ -> depth)
        | _ -> depth)
    | _ -> depth

let rec walk_tree (op : Core.op) = function
  | Leaf ps -> ps
  | Test { t_feature; t_cap; t_branches; t_default } ->
      let v =
        match t_feature with
        | F_operands -> Array.length op.Core.o_operands
        | F_regions -> Array.length op.Core.o_regions
        | F_nest ignore -> measured_nest_depth ignore t_cap 1 op
      in
      let rec pick = function
        | [] -> walk_tree op t_default
        | (bv, sub) :: tl ->
            if Int.equal bv v then walk_tree op sub else pick tl
      in
      pick t_branches

(* Patterns are numbered in benefit order at freeze time; a pattern's
   number is its counter slot in every driver run over the set, so the
   leaves carry [(number, pattern)] and the drivers need no lookup. *)
module Frozen = struct
  type bucket = {
    bk_all : (int * pattern) list;  (** benefit-sorted, prefix-unfiltered *)
    bk_tree : (int * pattern) dtree;
  }

  type t = {
    f_patterns : pattern array;  (** benefit-sorted *)
    f_index : (string, bucket) Hashtbl.t;
        (** root name -> benefit-sorted candidates (Any merged in) *)
    f_any : bucket;  (** fallback for names with no declared root *)
  }

  let bucket ps = { bk_all = ps; bk_tree = build_tree (features_of ps) ps }

  let of_patterns ps =
    let sorted = sort_by_benefit ps in
    let numbered = List.mapi (fun i p -> (i, p)) sorted in
    let is_any (_, p) = match p.p_roots with Any -> true | Roots _ -> false in
    let any = List.filter is_any numbered in
    let root_names =
      List.concat_map
        (fun p -> match p.p_roots with Any -> [] | Roots names -> names)
        sorted
      |> List.sort_uniq String.compare
    in
    let index = Hashtbl.create (List.length root_names * 2) in
    List.iter
      (fun name ->
        (* Filtering the globally sorted list preserves benefit order and
           registration-order tie-breaking inside each candidate list. *)
        let candidates =
          List.filter
            (fun (_, p) ->
              match p.p_roots with
              | Any -> true
              | Roots names -> List.exists (String.equal name) names)
            numbered
        in
        Hashtbl.replace index name (bucket candidates))
      root_names;
    { f_patterns = Array.of_list sorted; f_index = index; f_any = bucket any }

  let bucket_of t name =
    match Hashtbl.find_opt t.f_index name with Some b -> b | None -> t.f_any

  let candidates t op_name = List.map snd (bucket_of t op_name).bk_all

  (* One tree walk per op visit: every structural feature the bucket's
     prefixes test is evaluated at most once here, shared by all candidate
     patterns; only the surviving leaf reaches [try_apply]. *)
  let dispatch t (op : Core.op) =
    walk_tree op (bucket_of t op.Core.o_name).bk_tree

  let candidates_for t op = List.map snd (dispatch t op)

  let map_patterns f t = of_patterns (List.map f (Array.to_list t.f_patterns))
  let relax = map_patterns (fun p -> { p with p_roots = Any; p_prefix = None })
  let strip_prefixes = map_patterns (fun p -> { p with p_prefix = None })
end

let freeze = Frozen.of_patterns

(* One driver run over [fz]: it counts into fresh per-run arrays, sits in
   a trace span whose End event carries the application count, and
   publishes its counts when it ends, also when it raises. *)
let driver_run name (fz : Frozen.t) body =
  let n = Array.length fz.f_patterns in
  let run =
    { run_patterns = fz.f_patterns; run_attempts = Array.make n 0;
      run_hits = Array.make n 0 }
  in
  let traced = Trace.enabled () in
  if traced then
    Trace.begin_ ~cat:"driver" ~args:[ ("patterns", Trace.A_int n) ] name;
  match body run with
  | applications ->
      publish run;
      if traced then
        Trace.end_ ~cat:"driver"
          ~args:[ ("applications", Trace.A_int applications) ]
          name;
      applications
  | exception e ->
      publish run;
      if traced then Trace.end_ ~cat:"driver" name;
      raise e

let apply_greedily root frozen =
  driver_run "greedy-worklist" frozen @@ fun run ->
  (* LIFO worklist. Seeded post-order and popped from the top, the
     outermost ops come off first: a nest-consuming raising pattern fires
     on the outer loop before the driver wastes matcher work on the
     interior ops it is about to erase (erased entries are skipped on
     pop). Ops enqueued by a rewrite are processed before older entries,
     so fold cascades complete locally. *)
  let stack = ref [] in
  let pending : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let enqueue op =
    if op != root && not (Hashtbl.mem pending op.Core.o_id) then begin
      Hashtbl.replace pending op.Core.o_id ();
      stack := op :: !stack
    end
  in
  (* Enqueue an op together with its enclosing chain up to the root:
     raising patterns match on an outer loop nest whose interior just
     changed, so a mutation inside a region must revisit the ancestors. *)
  let rec enqueue_up op =
    enqueue op;
    match Core.parent_op op with
    | Some p when p != root -> enqueue_up p
    | _ -> ()
  in
  let listener =
    {
      Core.on_op_inserted = enqueue_up;
      on_operand_update = enqueue_up;
      on_op_erased =
        (fun op ->
          (* The erased op's operands may have become dead. *)
          Array.iter
            (fun v ->
              match Core.defining_op v with
              | Some d -> enqueue d
              | None -> ())
            op.Core.o_operands;
          match Core.parent_op op with
          | Some p when p != root -> enqueue_up p
          | _ -> ());
    }
  in
  (* Seed post-order so nested ops rewrite before the nests that contain
     them — the order progressive raising wants. *)
  Core.walk_post root (fun op -> if op != root then enqueue op);
  let applications = ref 0 in
  Core.with_listener listener (fun () ->
      while !stack <> [] do
        let op = List.hd !stack in
        stack := List.tl !stack;
        Hashtbl.remove pending op.Core.o_id;
        if op != root && Core.is_under ~root op then begin
          let rec try_patterns = function
            | [] -> ()
            | (i, p) :: rest ->
                if op.Core.o_parent == None then ()
                else
                  let ctx = { root; builder = Builder.before op } in
                  if try_apply run i p ctx op then begin
                    incr applications;
                    if !applications > max_iterations then
                      Support.Diag.errorf
                        "rewriter: no fixpoint after %d rewrites (diverging \
                         pattern set?)"
                        max_iterations;
                    (* A successful rewrite may enable another pattern on
                       the same op (if it survived). *)
                    if Core.is_under ~root op then enqueue op
                  end
                  else try_patterns rest
          in
          try_patterns (Frozen.dispatch frozen op)
        end
      done);
  !applications

(* The pre-worklist driver: full sweep from the root restarted after every
   application. Kept as the differential-testing oracle for the worklist
   driver (see test/test_random.ml). *)
let apply_greedily_fullsweep root frozen =
  driver_run "greedy-fullsweep" frozen @@ fun run ->
  let applications = ref 0 in
  let progress = ref true in
  let iterations = ref 0 in
  while !progress do
    incr iterations;
    if !iterations > max_iterations then
      Support.Diag.errorf
        "rewriter: no fixpoint after %d sweeps (diverging pattern set?)"
        max_iterations;
    progress := false;
    (* Sweep over a snapshot; stop the sweep at the first application since
       the matched region of IR may have been heavily restructured. *)
    let exception Applied in
    (try
       Core.walk_safe root (fun op ->
           if op != root && op.Core.o_parent != None then
             List.iter
               (fun (i, p) ->
                 if op.Core.o_parent != None then
                   let ctx = { root; builder = Builder.before op } in
                   if try_apply run i p ctx op then (
                     incr applications;
                     raise Applied))
               (Frozen.dispatch frozen op))
     with Applied -> progress := true)
  done;
  !applications

let apply_sweeps root frozen =
  driver_run "sweeps" frozen @@ fun run ->
  let applications = ref 0 in
  let progress = ref true in
  let sweeps = ref 0 in
  while !progress do
    incr sweeps;
    if !sweeps > max_iterations then
      Support.Diag.errorf "rewriter: no fixpoint after %d sweeps"
        max_iterations;
    progress := false;
    Core.walk_safe root (fun op ->
        if op != root && op.Core.o_parent != None then
          List.iter
            (fun (i, p) ->
              if op.Core.o_parent != None then
                let ctx = { root; builder = Builder.before op } in
                if try_apply run i p ctx op then begin
                  incr applications;
                  progress := true
                end)
            (Frozen.dispatch frozen op))
  done;
  !applications

let check_arity ~what op values =
  let n = Core.num_results op and m = List.length values in
  if n <> m then
    Support.Diag.errorf
      "%s: arity mismatch replacing %s (%d results, %d replacement values)"
      what op.Core.o_name n m

let replace_op ctx op values =
  check_arity ~what:"replace_op" op values;
  List.iteri
    (fun i new_v ->
      Core.replace_uses ctx.root ~old_v:(Core.result op i) ~new_v)
    values;
  Core.erase_op op

let replace_op_local ctx op values =
  ignore ctx;
  match op.Core.o_parent with
  | None -> Support.Diag.errorf "replace_op_local: op is detached"
  | Some block ->
      check_arity ~what:"replace_op_local" op values;
      List.iteri
        (fun i new_v ->
          Core.replace_uses_in_block block ~old_v:(Core.result op i) ~new_v)
        values;
      Core.erase_op op
