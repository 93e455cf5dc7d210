open Tdl_ast
module D = Support.Diag

(* ---- small helpers over index lists -------------------------------- *)

let positions_of ~within target =
  (* perm p with target.(t) = within.(p.(t)) *)
  List.map
    (fun v ->
      match
        List.mapi (fun i x -> (x, i)) within |> List.assoc_opt v
      with
      | Some i -> i
      | None -> D.errorf "TDL: index %s not found where expected" v)
    target

let is_identity_perm p = List.mapi (fun i x -> i = x) p |> List.for_all Fun.id

let all_singletons g = List.for_all (fun grp -> List.length grp = 1) g

(* ---- lowering state -------------------------------------------------- *)

type st = { mutable fresh : int; mutable steps : Tds.builder list }

let fresh st prefix =
  let n = st.fresh in
  st.fresh <- n + 1;
  Printf.sprintf "%s%d" prefix n

let emit st b = st.steps <- st.steps @ [ b ]

(* Bring tensor [name] (index order [order]) to index order [target] and
   collapse it by [groups] (a partition of [target] into contiguous
   groups). Returns the name holding the result. [collapse] controls
   whether the reshape step is emitted. *)
let normalize_input st ~name ~order ~target ~groups =
  let perm = positions_of ~within:order target in
  let name =
    if is_identity_perm perm then name
    else begin
      let out = fresh st "T" in
      emit st (Tds.Transpose { input = name; output = out; perm });
      out
    end
  in
  let grouping =
    let _, gs =
      List.fold_left
        (fun (off, acc) grp ->
          let n = List.length grp in
          (off + n, acc @ [ List.init n (fun i -> off + i) ]))
        (0, []) groups
    in
    gs
  in
  if all_singletons grouping then (name, grouping)
  else begin
    let out = fresh st "T" in
    emit st (Tds.Reshape { input = name; output = out; grouping });
    (out, grouping)
  end

(* ---- pattern classification + TTGT synthesis ------------------------ *)

let classify_pattern (s : stmt) =
  if s.op <> Accumulate then
    D.errorf "TDL: pattern must be an accumulation (+=)";
  match s.rhs with
  | R_mul (a, b) -> (s.lhs, a, b)
  | R_ref _ -> D.errorf "TDL: pattern must multiply two tensors"

let conv_classify ~(out : ref_) ~(in1 : ref_) ~(in2 : ref_) =
  (* O(n,f,x,y) += I(n,c,x+r,y+s) * W(f,c,r,s), modulo renaming. *)
  match
    (simple_indices out, simple_indices in2, out.indices, in1.indices)
  with
  | Some [ n; f; x; y ], Some [ f'; c; r; s ], _, [ i0; i1; i2; i3 ] ->
      let is_var e v = e = var v in
      let is_sum e a b =
        List.sort compare e.ix_terms = List.sort compare [ (a, 1); (b, 1) ]
        && e.ix_const = 0
      in
      if
        String.equal f f' && is_var i0 n && is_var i1 c && is_sum i2 x r
        && is_sum i3 y s
      then Some ()
      else None
  | _ -> None

let synthesize st ~(out : ref_) ~(in1 : ref_) ~(in2 : ref_) =
  match conv_classify ~out ~in1 ~in2 with
  | Some () ->
      emit st
        (Tds.Conv2d { in1 = in1.tensor; in2 = in2.tensor; output = out.tensor })
  | None ->
      let get_simple r =
        match simple_indices r with
        | Some idx -> idx
        | None ->
            D.errorf
              "TDL: unsupported compound subscripts in %s (only conv2d \
               windows are recognized)"
              r.tensor
      in
      let o = get_simple out and a = get_simple in1 and b = get_simple in2 in
      List.iter
        (fun v ->
          if List.mem v a && List.mem v b then
            D.errorf "TDL: output index %s appears in both inputs" v;
          if not (List.mem v a || List.mem v b) then
            D.errorf "TDL: output index %s appears in no input" v)
        o;
      let m_group = List.filter (fun v -> List.mem v a) o in
      let n_group = List.filter (fun v -> List.mem v b) o in
      let k_group =
        List.filter (fun v -> not (List.mem v o)) a
      in
      (* Contractedness: every non-output index of either input must be
         shared by both. *)
      List.iter
        (fun v ->
          if not (List.mem v o) && not (List.mem v a && List.mem v b) then
            D.errorf "TDL: index %s is neither free nor contracted" v)
        (a @ b);
      if k_group = [] then
        D.errorf "TDL: pattern has no contracted index (outer product?)";
      (* For matrix-vector shapes, pick the matrix orientation that avoids
         a transpose: (free, contracted) gives a plain gemv while
         (contracted, free) gives the transposed one. *)
      let matvec_plan ~mat_order ~free ~contracted =
        if mat_order = contracted @ free && mat_order <> free @ contracted
        then (`Transposed, contracted @ free, [ contracted; free ])
        else (`Plain, free @ contracted, [ free; contracted ])
      in
      (* Normalize the output; remember how to fold it back. *)
      let c_target = m_group @ n_group in
      let c_perm = positions_of ~within:o c_target in
      let c_groups =
        List.filter (fun g -> g <> []) [ m_group; n_group ]
      in
      let needs_transpose = not (is_identity_perm c_perm) in
      let grouping =
        let _, gs =
          List.fold_left
            (fun (off, acc) grp ->
              let n = List.length grp in
              (off + n, acc @ [ List.init n (fun i -> off + i) ]))
            (0, []) c_groups
        in
        gs
      in
      let needs_reshape = not (all_singletons grouping) in
      let c_name = out.tensor in
      let c_name =
        if needs_transpose then begin
          let t = fresh st "T" in
          emit st (Tds.Transpose { input = c_name; output = t; perm = c_perm });
          t
        end
        else c_name
      in
      let c_mat =
        if needs_reshape then begin
          let t = fresh st "T" in
          emit st (Tds.Reshape { input = c_name; output = t; grouping });
          t
        end
        else c_name
      in
      (* The product itself. *)
      (if m_group <> [] && n_group <> [] then begin
         let a_name, _ =
           normalize_input st ~name:in1.tensor ~order:a
             ~target:(m_group @ k_group) ~groups:[ m_group; k_group ]
         in
         let b_name, _ =
           normalize_input st ~name:in2.tensor ~order:b
             ~target:(k_group @ n_group) ~groups:[ k_group; n_group ]
         in
         emit st (Tds.Matmul { in1 = a_name; in2 = b_name; output = c_mat })
       end
       else begin
         (* Matrix-vector product: one input holds all free indices. *)
         let (mat, mat_order), (vec, vec_order), free =
           if n_group = [] then ((in1, a), (in2, b), m_group)
           else ((in2, b), (in1, a), n_group)
         in
         let orientation, target, groups =
           matvec_plan ~mat_order ~free ~contracted:k_group
         in
         let mat_name, _ =
           normalize_input st ~name:mat.tensor ~order:mat_order ~target ~groups
         in
         let vec_name, _ =
           normalize_input st ~name:vec.tensor ~order:vec_order
             ~target:k_group ~groups:[ k_group ]
         in
         emit st
           (Tds.Matvec
              {
                in1 = mat_name;
                in2 = vec_name;
                output = c_mat;
                transpose = orientation = `Transposed;
              })
       end);
      (* Fold the result back into the original layout. *)
      if needs_reshape then begin
        let t = if needs_transpose then fresh st "T" else out.tensor in
        emit st (Tds.Reshape { input = c_mat; output = t; grouping });
        if needs_transpose then
          emit st
            (Tds.Transpose
               {
                 input = t;
                 output = out.tensor;
                 perm =
                   Array.to_list
                     (Ir.Affine_map.inverse_permutation
                        (Array.of_list c_perm));
               })
      end
      else if needs_transpose then
        emit st
          (Tds.Transpose
             {
               input = c_mat;
               output = out.tensor;
               perm =
                 Array.to_list
                   (Ir.Affine_map.inverse_permutation (Array.of_list c_perm));
             })

(* ---- explicit builder statements (Listing 3) ------------------------ *)

let builder_indices (r : ref_) =
  match simple_indices r with
  | Some idx -> idx
  | None -> D.errorf "TDL: builder statements need simple subscripts"

let expand_where (r : ref_) (where : (string * string list) option) =
  (* The index order of [r] with any fused index expanded to its group. *)
  let idx = builder_indices r in
  match where with
  | None -> (idx, idx)
  | Some (f, group) ->
      let expanded =
        List.concat_map (fun v -> if String.equal v f then group else [ v ]) idx
      in
      (idx, expanded)

let lower_builder_stmt st (s : stmt) =
  match (s.op, s.rhs) with
  | Accumulate, R_mul (a, b) -> (
      (* Must be an exact matmul/matvec at this point. *)
      let o = builder_indices s.lhs in
      let ia = builder_indices a in
      let ib = builder_indices b in
      match (o, ia, ib) with
      | [ i; j ], [ i'; k ], [ k'; j' ]
        when i = i' && j = j' && k = k' ->
          emit st (Tds.Matmul { in1 = a.tensor; in2 = b.tensor; output = s.lhs.tensor })
      | [ i ], [ i'; k ], [ k' ] when i = i' && k = k' ->
          emit st
            (Tds.Matvec
               { in1 = a.tensor; in2 = b.tensor; output = s.lhs.tensor;
                 transpose = false })
      | [ j ], [ k; j' ], [ k' ] when j = j' && k = k' ->
          emit st
            (Tds.Matvec
               { in1 = a.tensor; in2 = b.tensor; output = s.lhs.tensor;
                 transpose = true })
      | _ ->
          D.errorf
            "TDL: builder accumulation must be a canonical matmul/matvec")
  | Accumulate, R_ref _ ->
      D.errorf "TDL: builder accumulation must multiply two tensors"
  | Assign, R_mul _ ->
      D.errorf "TDL: builder assignment cannot multiply tensors"
  | Assign, R_ref src ->
      let l_idx, l_expanded = expand_where s.lhs s.where in
      let r_idx, r_expanded = expand_where src s.where in
      if List.length l_idx < List.length r_idx then begin
        (* Collapse: transpose rhs to expanded-lhs order, then reshape. *)
        let perm = positions_of ~within:r_idx l_expanded in
        let name =
          if is_identity_perm perm then src.tensor
          else begin
            let t = fresh st "T" in
            emit st (Tds.Transpose { input = src.tensor; output = t; perm });
            t
          end
        in
        let f, group =
          match s.where with
          | Some w -> w
          | None -> D.errorf "TDL: rank-changing assignment needs 'where'"
        in
        let grouping =
          let pos = ref 0 in
          List.map
            (fun v ->
              if String.equal v f then begin
                let g = List.init (List.length group) (fun i -> !pos + i) in
                pos := !pos + List.length group;
                g
              end
              else begin
                let g = [ !pos ] in
                incr pos;
                g
              end)
            l_idx
        in
        emit st
          (Tds.Reshape { input = name; output = s.lhs.tensor; grouping })
      end
      else if List.length l_idx > List.length r_idx then begin
        (* Expand: reshape rhs, then transpose into lhs order. *)
        let f, group =
          match s.where with
          | Some w -> w
          | None -> D.errorf "TDL: rank-changing assignment needs 'where'"
        in
        let grouping =
          let pos = ref 0 in
          List.map
            (fun v ->
              if String.equal v f then begin
                let g = List.init (List.length group) (fun i -> !pos + i) in
                pos := !pos + List.length group;
                g
              end
              else begin
                let g = [ !pos ] in
                incr pos;
                g
              end)
            r_idx
        in
        let perm = positions_of ~within:r_expanded l_idx in
        if is_identity_perm perm then
          emit st
            (Tds.Reshape { input = src.tensor; output = s.lhs.tensor; grouping })
        else begin
          let t = fresh st "T" in
          emit st (Tds.Reshape { input = src.tensor; output = t; grouping });
          emit st
            (Tds.Transpose { input = t; output = s.lhs.tensor; perm })
        end
      end
      else begin
        (* Same rank: pure transpose (or copy). *)
        let perm = positions_of ~within:r_idx l_idx in
        emit st
          (Tds.Transpose { input = src.tensor; output = s.lhs.tensor; perm })
      end

(* An explicit builder must compute the pattern: it accumulates, its
   last statement writes the pattern's output, and it reads both inputs. *)
let check_builder ~(out : ref_) ~(in1 : ref_) ~(in2 : ref_) builder =
  if not (List.exists (fun s -> s.op = Accumulate) builder) then
    D.errorf "TDL: builder has no accumulation (+=)";
  let last = List.nth builder (List.length builder - 1) in
  if not (String.equal last.lhs.tensor out.tensor) then
    D.errorf "TDL: builder must end by writing the pattern's output %s"
      out.tensor;
  let reads =
    List.concat_map
      (fun s ->
        match s.rhs with
        | R_ref r -> [ r.tensor ]
        | R_mul (a, b) -> [ a.tensor; b.tensor ])
      builder
  in
  List.iter
    (fun (r : ref_) ->
      if not (List.mem r.tensor reads) then
        D.errorf "TDL: builder never reads the pattern's input %s" r.tensor)
    [ in1; in2 ]

(* The lowering's errors name no position of their own: one without a
   location is re-raised at the tactic's [def]. *)
let lower (t : tactic) =
  let st = { fresh = 0; steps = [] } in
  (try
     let out, in1, in2 = classify_pattern t.t_pattern in
     if t.t_builder = [] then synthesize st ~out ~in1 ~in2
     else begin
       check_builder ~out ~in1 ~in2 t.t_builder;
       List.iter (lower_builder_stmt st) t.t_builder
     end
   with D.Error (loc, msg) when not (Support.Loc.is_known loc) ->
     D.error ~loc:t.t_loc msg);
  {
    Tds.name = t.t_name;
    pattern = t.t_pattern;
    (* Every generated matcher anchors on a perfectly-nested loop nest. *)
    roots = [ "affine.for" ];
    builders = st.steps;
    loc = t.t_loc;
  }

let lower_source ?file src =
  List.map lower (Tdl_parser.parse ?file src)

let gemm_tdl =
  {|def GEMM {
  pattern = builder C(i,j) += A(i,k) * B(k,j)
}
|}

let ttgt_tdl =
  {|def TTGT {
  pattern
    C(a,b,c) += A(a,c,d) * B(d,b)
  builder
    D(f,b) = C(a,b,c) where f = a * c
    E(f,d) = A(a,c,d) where f = a * c
    D(f,b) += E(f,d) * B(d,b)
    C(a,b,c) = D(f,b) where f = a * c
}
|}

let contraction_tdl ~name out in1 in2 =
  let subs s =
    String.concat ","
      (List.init (String.length s) (fun i -> String.make 1 s.[i]))
  in
  Printf.sprintf "def %s {\n  pattern\n    C(%s) += A(%s) * B(%s)\n}\n" name
    (subs out) (subs in1) (subs in2)
