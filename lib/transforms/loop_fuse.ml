open Ir
module A = Affine.Affine_ops

type heuristic = No_fuse | Smart_fuse | Max_fuse

let heuristic_to_string = function
  | No_fuse -> "nofuse"
  | Smart_fuse -> "smartfuse"
  | Max_fuse -> "maxfuse"

let same_bounds l1 l2 =
  A.for_step l1 = A.for_step l2
  &&
  match (A.for_const_bounds l1, A.for_const_bounds l2) with
  | Some b1, Some b2 -> b1 = b2
  | _ -> false

(* Fusing runs the second loop's iteration [i] right after the first's:
   every dependence from the first loop into the second must keep its
   distance on the fused loop >= 0. *)
let fusable l1 l2 =
  same_bounds l1 l2
  (* Restrict to equal-depth perfect nests: fusing nests of different
     depth creates imperfect nests that defeat subsequent tiling, a bad
     trade this simple cost model cannot see. *)
  && List.length (Affine.Loops.perfect_nest l1)
     = List.length (Affine.Loops.perfect_nest l2)
  &&
  (* The loops of the two nests pair up level by level, as fusing the
     nests whole would line them up. *)
  let outer = Affine.Dependence.ivs_around l1 in
  let ivs l = outer @ Affine.Loops.nest_ivs (Affine.Loops.perfect_nest l) in
  Option.is_none
    Affine.Dependence.(
      violation ~into:(ivs l2, [ l2 ])
        ~ok:(fusable ~at:(List.length outer))
        (ivs l1, [ l1 ]))

let memrefs loop =
  let acc = ref [] in
  Core.walk loop (fun op ->
      match Affine.Bounds.access op with
      | Some (m, _, _) -> acc := m :: !acc
      | None -> ());
  !acc

let shares_data l1 l2 =
  let m2 = memrefs l2 in
  List.exists (fun m -> List.exists (Core.value_equal m) m2) (memrefs l1)

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
  | Smart_fuse -> shares_data l1 l2 && fusable l1 l2

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
