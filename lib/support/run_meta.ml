let schema_version = 2

let hostname () = try Unix.gethostname () with _ -> "unknown"

let json ?domains () =
  let domains =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  Json.Obj
    [
      ("schema_version", Json.num_int schema_version);
      ("domains", Json.num_int domains);
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("hostname", Json.Str (hostname ()));
    ]

let schema_version_of j =
  match Json.member "run_meta" j with
  | Some meta -> (
      match Json.member "schema_version" meta with
      | Some v -> Json.to_int v
      | None -> None)
  | None -> None
