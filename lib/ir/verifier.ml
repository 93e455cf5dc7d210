module D = Support.Diag

(* Errors sit at the op's source position, or its nearest located
   ancestor's: ops built in memory have none, and their messages carry
   no position. *)
let fail op fmt =
  Format.kasprintf
    (fun msg ->
      D.errorf ~loc:(Core.nearest_loc op) "verifier: '%s' (id %d): %s"
        op.Core.o_name op.Core.o_id msg)
    fmt

(* Scope = set of value ids visible at the current program point: one
   table for the whole walk. A block's arguments enter it at block start
   and each op's results after the op; all of them leave when the block
   ends, so a sibling block or the code after the region never sees
   them. *)
let rec verify_op scope (op : Core.op) =
  Array.iter
    (fun (v : Core.value) ->
      if not (Hashtbl.mem scope v.Core.v_id) then
        fail op "operand %s used before definition or out of scope"
          (Printer.debug_value v))
    op.o_operands;
  (* A dialect hook that raises without a position is located here; one
     that trips over a missing or mistyped attribute ([Core.attr],
     [Attr.get_*] raise [Invalid_argument]) rejects the op. *)
  (match Dialect.lookup op.o_name with
  | Some d -> (
      try d.od_verify op with
      | D.Error (loc, msg) when not (Support.Loc.is_known loc) ->
          D.error ~loc:(Core.nearest_loc op) msg
      | Invalid_argument msg -> fail op "%s" msg)
  | None -> ());
  Array.iter
    (fun (r : Core.region) ->
      List.iter
        (fun (b : Core.block) ->
          let defined = ref [] in
          let define (v : Core.value) =
            Hashtbl.replace scope v.Core.v_id ();
            defined := v :: !defined
          in
          Array.iter define b.b_args;
          List.iter
            (fun child ->
              verify_op scope child;
              Array.iter define child.o_results)
            (Core.ops_of_block b);
          (* Terminator discipline: if any op in the block is a registered
             terminator it must be the last one. *)
          let rec check_terms = function
            | [] -> ()
            | [ _last ] -> ()
            | o :: rest ->
                if Dialect.is_terminator o then
                  fail op "terminator '%s' is not last in its block"
                    o.Core.o_name
                else check_terms rest
          in
          check_terms (Core.ops_of_block b);
          List.iter (fun (v : Core.value) -> Hashtbl.remove scope v.Core.v_id)
            !defined)
        r.r_blocks)
    op.o_regions

let verify root =
  let scope = Hashtbl.create 64 in
  verify_op scope root

let verify_result root =
  match verify root with
  | () -> Ok ()
  | exception D.Error (loc, msg) -> Error (D.to_string loc msg)
