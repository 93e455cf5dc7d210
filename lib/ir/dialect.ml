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

(* Filled by each dialect module's initialisation (dialect libraries are
   linked whole), so before [main] runs on the only domain; only read
   afterwards, which is why lookups need no lock. *)
let registry : (string, op_def) Hashtbl.t = Hashtbl.create 64

let register_all ds =
  List.iter (fun d -> Hashtbl.replace registry d.od_name d) ds

let lookup name = Hashtbl.find_opt registry name

let is_terminator (op : Core.op) =
  match lookup op.o_name with Some d -> d.od_terminator | None -> false

let registered_ops () =
  Hashtbl.fold (fun name _ acc -> name :: acc) registry []
  |> List.sort String.compare

let dialect_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name
