open C_ast
module L = C_lexer
module D = Support.Diag

(* [L.tokenize] ends every stream with [Eof], which [next] never steps
   past: input truncated anywhere reads [Eof] from then on, so the rule
   that needed more fails with a located "found end of input" error. *)
type state = { mutable tok : L.t; mutable rest : L.t list }

let peek st = st.tok

let next st =
  let t = st.tok in
  (match st.rest with
  | t' :: rest ->
      st.tok <- t';
      st.rest <- rest
  | [] -> ());
  t

let expect st tok =
  let t = next st in
  if t.L.tok <> tok then
    D.errorf ~loc:t.L.loc "expected %s but found %s" (L.token_to_string tok)
      (L.token_to_string t.L.tok)

let expect_ident st =
  let t = next st in
  match t.L.tok with
  | L.Ident s -> (s, t.L.loc)
  | other ->
      D.errorf ~loc:t.L.loc "expected identifier, found %s"
        (L.token_to_string other)

let expect_int st =
  let t = next st in
  match t.L.tok with
  | L.Int i -> i
  | other ->
      D.errorf ~loc:t.L.loc "expected integer literal, found %s"
        (L.token_to_string other)

(* index := term (("+"|"-") term)* ; term := factor ("*" factor)*
   factor := int | ident | "(" index ")" *)
let rec parse_index st =
  let lhs = parse_index_term st in
  let rec loop lhs =
    match (peek st).L.tok with
    | L.Plus ->
        ignore (next st);
        loop (I_add (lhs, parse_index_term st))
    | L.Minus ->
        ignore (next st);
        loop (I_sub (lhs, parse_index_term st))
    | _ -> lhs
  in
  loop lhs

and parse_index_term st =
  let lhs = parse_index_factor st in
  let rec loop lhs =
    match (peek st).L.tok with
    | L.Star ->
        ignore (next st);
        loop (I_mul (lhs, parse_index_factor st))
    | _ -> lhs
  in
  loop lhs

and parse_index_factor st =
  let t = next st in
  match t.L.tok with
  | L.Int i -> I_const i
  | L.Minus -> (
      match (next st).L.tok with
      | L.Int i -> I_const (-i)
      | other ->
          D.errorf ~loc:t.L.loc "expected integer after '-', found %s"
            (L.token_to_string other))
  | L.Ident v -> I_var v
  | L.Lparen ->
      let e = parse_index st in
      expect st L.Rparen;
      e
  | other ->
      D.errorf ~loc:t.L.loc "expected index expression, found %s"
        (L.token_to_string other)

let parse_ref st =
  let name, _ = expect_ident st in
  let rec subs acc =
    match (peek st).L.tok with
    | L.Lbracket ->
        ignore (next st);
        let i = parse_index st in
        expect st L.Rbracket;
        subs (i :: acc)
    | _ -> List.rev acc
  in
  { array = name; subscripts = subs [] }

(* expr := term (("+"|"-") term)* ; term := factor (("*"|"/") factor)* *)
let rec parse_expr st =
  let lhs = parse_term st in
  let rec loop lhs =
    match (peek st).L.tok with
    | L.Plus ->
        ignore (next st);
        loop (E_add (lhs, parse_term st))
    | L.Minus ->
        ignore (next st);
        loop (E_sub (lhs, parse_term st))
    | _ -> lhs
  in
  loop lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec loop lhs =
    match (peek st).L.tok with
    | L.Star ->
        ignore (next st);
        loop (E_mul (lhs, parse_factor st))
    | L.Slash ->
        ignore (next st);
        loop (E_div (lhs, parse_factor st))
    | _ -> lhs
  in
  loop lhs

and parse_factor st =
  let t = peek st in
  match t.L.tok with
  | L.Float f ->
      ignore (next st);
      E_lit f
  | L.Int i ->
      ignore (next st);
      E_lit (float_of_int i)
  | L.Minus ->
      ignore (next st);
      E_sub (E_lit 0., parse_factor st)
  | L.Ident _ -> E_ref (parse_ref st)
  | L.Lparen ->
      ignore (next st);
      let e = parse_expr st in
      expect st L.Rparen;
      e
  | other ->
      D.errorf ~loc:t.L.loc "expected expression, found %s"
        (L.token_to_string other)

let rec parse_stmt st =
  let t = peek st in
  match t.L.tok with
  | L.Kw_for -> parse_for st
  | L.Ident _ ->
      let loc = t.L.loc in
      let lhs = parse_ref st in
      let op = next st in
      let rhs = parse_expr st in
      expect st L.Semi;
      let rhs =
        match op.L.tok with
        | L.Assign -> rhs
        | L.Plus_assign -> E_add (E_ref lhs, rhs)
        | L.Minus_assign -> E_sub (E_ref lhs, rhs)
        | L.Star_assign -> E_mul (E_ref lhs, rhs)
        | other ->
            D.errorf ~loc:op.L.loc "expected assignment operator, found %s"
              (L.token_to_string other)
      in
      S_assign { lhs; rhs; loc }
  | other ->
      D.errorf ~loc:t.L.loc "expected statement, found %s"
        (L.token_to_string other)

and parse_for st =
  let for_loc = (peek st).L.loc in
  expect st L.Kw_for;
  expect st L.Lparen;
  expect st L.Kw_int;
  let var, loc = expect_ident st in
  expect st L.Assign;
  let lb = expect_int st in
  expect st L.Semi;
  let var2, _ = expect_ident st in
  if not (String.equal var var2) then
    D.errorf ~loc "loop condition tests %S, expected %S" var2 var;
  (match (next st).L.tok with
  | L.Lt -> ()
  | other ->
      D.errorf ~loc "only '<' loop conditions are supported, found %s"
        (L.token_to_string other));
  let ub = expect_int st in
  expect st L.Semi;
  (* ++i | i++ *)
  (match (next st).L.tok with
  | L.Plus_plus ->
      let var3, _ = expect_ident st in
      if not (String.equal var var3) then
        D.errorf ~loc "loop increments %S, expected %S" var3 var
  | L.Ident var3 when String.equal var var3 -> expect st L.Plus_plus
  | other ->
      D.errorf ~loc "expected unit-stride increment, found %s"
        (L.token_to_string other));
  expect st L.Rparen;
  let body =
    match (peek st).L.tok with
    | L.Lbrace ->
        ignore (next st);
        let rec stmts acc =
          match (peek st).L.tok with
          | L.Rbrace ->
              ignore (next st);
              List.rev acc
          | _ -> stmts (parse_stmt st :: acc)
        in
        stmts []
    | _ -> [ parse_stmt st ]
  in
  S_for { var; lb; ub; body; loc = for_loc }

let parse_decl st =
  expect st L.Kw_float;
  let name, _ = expect_ident st in
  let rec dims acc =
    match (peek st).L.tok with
    | L.Lbracket ->
        ignore (next st);
        let n = expect_int st in
        expect st L.Rbracket;
        dims (n :: acc)
    | _ -> List.rev acc
  in
  { d_name = name; d_dims = dims [] }

let parse_kernel_at st =
  expect st L.Kw_void;
  let name, _ = expect_ident st in
  expect st L.Lparen;
  let rec params acc =
    match (peek st).L.tok with
    | L.Rparen ->
        ignore (next st);
        List.rev acc
    | L.Comma ->
        ignore (next st);
        params acc
    | _ -> params (parse_decl st :: acc)
  in
  let params = params [] in
  expect st L.Lbrace;
  let rec locals acc =
    match (peek st).L.tok with
    | L.Kw_float ->
        let d = parse_decl st in
        expect st L.Semi;
        locals (d :: acc)
    | _ -> List.rev acc
  in
  let locals = locals [] in
  let rec stmts acc =
    match (peek st).L.tok with
    | L.Rbrace ->
        ignore (next st);
        List.rev acc
    | _ -> stmts (parse_stmt st :: acc)
  in
  let body = stmts [] in
  { k_name = name; k_params = params; k_locals = locals; k_body = body }

let parse_program ?(file = "<string>") src =
  let st =
    match L.tokenize ~file src with
    | tok :: rest -> { tok; rest }
    | [] -> invalid_arg "C_lexer.tokenize: no Eof token"
  in
  let rec kernels acc =
    match (peek st).L.tok with
    | L.Eof -> List.rev acc
    | _ -> kernels (parse_kernel_at st :: acc)
  in
  kernels []

let parse_kernel ?file src =
  match parse_program ?file src with
  | [ k ] -> k
  | ks -> D.errorf "expected exactly one kernel, found %d" (List.length ks)
