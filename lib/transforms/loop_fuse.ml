open Ir
module A = Affine.Affine_ops

type heuristic = No_fuse | Smart_fuse | Max_fuse

let heuristic_to_string = function
  | No_fuse -> "nofuse"
  | Smart_fuse -> "smartfuse"
  | Max_fuse -> "maxfuse"

(* Identify an index operand by where its loop sits inside the candidate
   loop (preorder number), or as an outer value. Signatures of accesses in
   two loops are comparable because the numbering is structural. *)
type iv_role = Rel of int | Outer of int

type signature = {
  sg_memref : int;  (** value id *)
  sg_store : bool;
  sg_map : string;
  sg_roles : iv_role list;
}

let loop_numbering root =
  let tbl = Hashtbl.create 8 in
  let n = ref 0 in
  Core.walk root (fun op ->
      if A.is_for op then begin
        Hashtbl.replace tbl (A.for_iv op).Core.v_id !n;
        incr n
      end);
  tbl

let signatures_of loop =
  let numbering = loop_numbering loop in
  let acc = ref [] in
  Core.walk loop (fun op ->
      if A.is_load op || A.is_store op then begin
        let memref = A.access_memref op in
        let roles =
          List.map
            (fun (iv : Core.value) ->
              match Hashtbl.find_opt numbering iv.v_id with
              | Some d -> Rel d
              | None -> Outer iv.v_id)
            (A.access_indices op)
        in
        acc :=
          {
            sg_memref = memref.Core.v_id;
            sg_store = A.is_store op;
            sg_map = Affine_map.to_string (A.access_map op);
            sg_roles = roles;
          }
          :: !acc
      end);
  List.rev !acc

let same_bounds l1 l2 =
  A.for_step l1 = A.for_step l2
  &&
  match (A.for_const_bounds l1, A.for_const_bounds l2) with
  | Some b1, Some b2 -> b1 = b2
  | _ -> false

let fusable l1 l2 =
  same_bounds l1 l2
  (* Restrict to equal-depth perfect nests: fusing nests of different
     depth creates imperfect nests that defeat subsequent tiling, a bad
     trade this simple cost model cannot see. *)
  && List.length (Affine.Loops.perfect_nest l1)
     = List.length (Affine.Loops.perfect_nest l2)
  &&
  let s1 = signatures_of l1 and s2 = signatures_of l2 in
  let arrays sigs = List.map (fun s -> s.sg_memref) sigs in
  let written sigs =
    List.filter_map (fun s -> if s.sg_store then Some s.sg_memref else None) sigs
  in
  let shared_written =
    List.sort_uniq compare (written s1 @ written s2)
    |> List.filter (fun x -> List.mem x (arrays s1) && List.mem x (arrays s2))
  in
  List.for_all
    (fun x ->
      let on_x =
        List.filter (fun s -> s.sg_memref = x) (s1 @ s2)
        |> List.map (fun s -> (s.sg_map, s.sg_roles))
      in
      match on_x with
      | [] -> true
      | (_, roles) :: _ as all ->
          (* All subscript patterns identical, and the cell must vary with
             the fused loop's own induction variable (role [Rel 0]):
             otherwise every iteration of both loops aliases the same cell
             and interleaving reorders cross-loop dependences (e.g. a
             reduction into [tmp[i]] read by a second loop). *)
          let first = List.hd all in
          List.for_all (fun s -> s = first) all
          && List.mem (Rel 0) roles)
    shared_written

let shares_data l1 l2 =
  let arrays l =
    List.sort_uniq compare
      (List.map (fun s -> s.sg_memref) (signatures_of l))
  in
  List.exists (fun x -> List.mem x (arrays l2)) (arrays l1)

let fuse_pair l1 l2 =
  let body1 = A.for_body l1 in
  let yield1 =
    List.find (fun (o : Core.op) -> String.equal o.o_name "affine.yield")
      (Core.ops_of_block body1)
  in
  let iv1 = A.for_iv l1 and iv2 = A.for_iv l2 in
  List.iter
    (fun op ->
      Core.detach_op op;
      Core.insert_before ~anchor:yield1 op;
      Core.replace_uses op ~old_v:iv2 ~new_v:iv1)
    (Affine.Loops.body_ops l2);
  Core.erase_op l2

let should_fuse h l1 l2 =
  match h with
  | No_fuse -> false
  | Max_fuse -> fusable l1 l2
  | Smart_fuse -> fusable l1 l2 && shares_data l1 l2

let run h root =
  let fused = ref 0 in
  if h <> No_fuse then begin
    let progress = ref true in
    while !progress do
      progress := false;
      (* Find one fusable adjacent pair anywhere, fuse it, restart. *)
      let exception Found of Core.op * Core.op in
      (try
         Core.walk root (fun op ->
             Array.iter
               (fun (r : Core.region) ->
                 List.iter
                   (fun (blk : Core.block) ->
                     let rec scan = function
                       | a :: (b :: _ as rest) ->
                           if
                             A.is_for a && A.is_for b && should_fuse h a b
                           then raise (Found (a, b))
                           else scan rest
                       | _ -> ()
                     in
                     scan (Core.ops_of_block blk))
                   r.r_blocks)
               op.Core.o_regions)
       with Found (a, b) ->
         fuse_pair a b;
         incr fused;
         progress := true)
    done
  end;
  !fused
