open Tdl_ast
module D = Support.Diag

type token =
  | Def
  | Pattern
  | Builder
  | Where
  | Ident of string
  | Int of int
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Comma
  | Eq
  | Plus_eq
  | Star
  | Plus
  | Eof

let token_to_string = function
  | Def -> "'def'"
  | Pattern -> "'pattern'"
  | Builder -> "'builder'"
  | Where -> "'where'"
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int i -> Printf.sprintf "integer %d" i
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Comma -> "','"
  | Eq -> "'='"
  | Plus_eq -> "'+='"
  | Star -> "'*'"
  | Plus -> "'+'"
  | Eof -> "end of input"

type ltok = { tok : token; loc : Support.Loc.t }

let tokenize ~file src =
  let n = String.length src in
  let pos = ref 0 and line = ref 1 and col = ref 1 in
  let toks = ref [] in
  let loc () = Support.Loc.make ~file ~line:!line ~col:!col in
  let advance () =
    (if !pos < n then
       if src.[!pos] = '\n' then (
         incr line;
         col := 1)
       else incr col);
    incr pos
  in
  let peek i = if !pos + i < n then Some src.[!pos + i] else None in
  let is_id c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let is_digit c = c >= '0' && c <= '9' in
  let rec go () =
    match peek 0 with
    | None -> toks := { tok = Eof; loc = loc () } :: !toks
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        go ()
    | Some '/' when peek 1 = Some '/' ->
        while peek 0 <> None && peek 0 <> Some '\n' do
          advance ()
        done;
        go ()
    | Some c when is_id c ->
        let l = loc () in
        let start = !pos in
        while (match peek 0 with
               | Some c -> is_id c || is_digit c
               | None -> false)
        do
          advance ()
        done;
        let text = String.sub src start (!pos - start) in
        let tok =
          match text with
          | "def" -> Def
          | "pattern" -> Pattern
          | "builder" -> Builder
          | "where" -> Where
          | _ -> Ident text
        in
        toks := { tok; loc = l } :: !toks;
        go ()
    | Some c when is_digit c ->
        let l = loc () in
        let start = !pos in
        while (match peek 0 with Some c -> is_digit c | None -> false) do
          advance ()
        done;
        toks :=
          { tok = Int (int_of_string (String.sub src start (!pos - start))); loc = l }
          :: !toks;
        go ()
    | Some c ->
        let l = loc () in
        let one tok =
          advance ();
          toks := { tok; loc = l } :: !toks
        in
        (match (c, peek 1) with
        | '+', Some '=' ->
            advance ();
            advance ();
            toks := { tok = Plus_eq; loc = l } :: !toks
        | '(', _ -> one Lparen
        | ')', _ -> one Rparen
        | '{', _ -> one Lbrace
        | '}', _ -> one Rbrace
        | ',', _ -> one Comma
        | '=', _ -> one Eq
        | '*', _ -> one Star
        | '+', _ -> one Plus
        | _ -> D.errorf ~loc:l "TDL: unexpected character %C" c);
        go ()
  in
  go ();
  List.rev !toks

type state = { mutable toks : ltok list }

let peek st = match st.toks with [] -> assert false | t :: _ -> t

let next st =
  let t = peek st in
  (match st.toks with [] -> () | _ :: r -> st.toks <- r);
  t

let expect st tok =
  let t = next st in
  if t.tok <> tok then
    D.errorf ~loc:t.loc "TDL: expected %s, found %s" (token_to_string tok)
      (token_to_string t.tok)

let expect_ident st =
  let t = next st in
  match t.tok with
  | Ident s -> s
  | other ->
      D.errorf ~loc:t.loc "TDL: expected identifier, found %s"
        (token_to_string other)

(* iexpr := iterm ('+' iterm)*, iterm := INT '*' IDENT | INT | IDENT *)
let parse_iexpr st =
  let parse_term () =
    let t = next st in
    match t.tok with
    | Int k -> (
        match (peek st).tok with
        | Star ->
            ignore (next st);
            let v = expect_ident st in
            { ix_terms = [ (v, k) ]; ix_const = 0 }
        | _ -> { ix_terms = []; ix_const = k })
    | Ident v -> { ix_terms = [ (v, 1) ]; ix_const = 0 }
    | other ->
        D.errorf ~loc:t.loc "TDL: expected subscript term, found %s"
          (token_to_string other)
  in
  let add a b =
    let terms =
      List.fold_left
        (fun acc (v, k) ->
          match List.assoc_opt v acc with
          | Some k' -> (v, k + k') :: List.remove_assoc v acc
          | None -> acc @ [ (v, k) ])
        a.ix_terms b.ix_terms
    in
    { ix_terms = terms; ix_const = a.ix_const + b.ix_const }
  in
  let rec loop acc =
    match (peek st).tok with
    | Plus ->
        ignore (next st);
        loop (add acc (parse_term ()))
    | _ -> acc
  in
  loop (parse_term ())

let parse_ref st =
  let tensor = expect_ident st in
  expect st Lparen;
  let rec idxs acc =
    let e = parse_iexpr st in
    let t = next st in
    match t.tok with
    | Comma -> idxs (e :: acc)
    | Rparen -> List.rev (e :: acc)
    | other ->
        D.errorf ~loc:t.loc
          "TDL: expected ',' or ')' in subscript list, found %s"
          (token_to_string other)
  in
  { tensor; indices = idxs [] }

let parse_stmt_at st =
  let lhs = parse_ref st in
  let op =
    let t = next st in
    match t.tok with
    | Eq -> Assign
    | Plus_eq -> Accumulate
    | other ->
        D.errorf ~loc:t.loc "TDL: expected '=' or '+=', found %s"
          (token_to_string other)
  in
  let r1 = parse_ref st in
  let rhs =
    match (peek st).tok with
    | Star ->
        ignore (next st);
        R_mul (r1, parse_ref st)
    | _ -> R_ref r1
  in
  let where =
    match (peek st).tok with
    | Where ->
        ignore (next st);
        let f = expect_ident st in
        expect st Eq;
        let rec group acc =
          let v = expect_ident st in
          match (peek st).tok with
          | Star ->
              ignore (next st);
              group (v :: acc)
          | _ -> List.rev (v :: acc)
        in
        Some (f, group [])
    | _ -> None
  in
  { lhs; op; rhs; where }

let parse_tactic_at st =
  let loc = (peek st).loc in
  expect st Def;
  let name = expect_ident st in
  expect st Lbrace;
  expect st Pattern;
  let pattern, builder =
    match (peek st).tok with
    | Eq ->
        (* Listing 8: pattern = builder <stmt> *)
        ignore (next st);
        expect st Builder;
        let s = parse_stmt_at st in
        (s, [])
    | _ ->
        let pattern = parse_stmt_at st in
        let builder =
          match (peek st).tok with
          | Builder ->
              ignore (next st);
              let rec stmts acc =
                match (peek st).tok with
                | Rbrace -> List.rev acc
                | _ -> stmts (parse_stmt_at st :: acc)
              in
              stmts []
          | _ -> []
        in
        (pattern, builder)
  in
  expect st Rbrace;
  { t_name = name; t_pattern = pattern; t_builder = builder; t_loc = loc }

let parse ?(file = "<tdl>") src =
  let st = { toks = tokenize ~file src } in
  let rec go acc =
    match (peek st).tok with
    | Eof -> List.rev acc
    | _ -> go (parse_tactic_at st :: acc)
  in
  go []

let parse_one ?file src =
  match parse ?file src with
  | [ t ] -> t
  | ts -> D.errorf "TDL: expected one tactic, found %d" (List.length ts)
