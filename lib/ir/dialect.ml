type op_def = {
  od_name : string;
  od_verify : Core.op -> unit;
  od_terminator : bool;
  od_summary : string;
}

let no_verify (_ : Core.op) = ()

let def ?(verify = no_verify) ?(terminator = false) ?(summary = "") name =
  {
    od_name = name;
    od_verify = verify;
    od_terminator = terminator;
    od_summary = summary;
  }

(* The registry is a plain Hashtbl, so it is write-once-before-parallelism:
   all registration must complete before a second domain reads it
   (lookups are unsynchronized on the verifier hot path on purpose).
   Each dialect's [register ()] forces a Support.Once cell, so its body
   runs once and is published only after it returned: no domain ever
   observes a half-registered dialect. Two cells may initialize on two
   domains at once, so writes serialize on [write_mutex]. Multi-domain
   drivers ([Batch.Driver.run]) additionally register everything eagerly
   on the calling domain before spawning, so in practice worker domains
   never write here at all. *)
let registry : (string, op_def) Hashtbl.t = Hashtbl.create 64
let write_mutex = Mutex.create ()

let register d =
  Mutex.protect write_mutex (fun () -> Hashtbl.replace registry d.od_name d)

let register_all ds = List.iter register ds
let lookup name = Hashtbl.find_opt registry name
let is_registered name = Hashtbl.mem registry name

let is_terminator (op : Core.op) =
  match lookup op.o_name with Some d -> d.od_terminator | None -> false

let registered_ops () =
  Hashtbl.fold (fun name _ acc -> name :: acc) registry []
  |> List.sort String.compare

let dialect_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name
