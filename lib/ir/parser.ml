module D = Support.Diag
module E = Affine_expr

(* ---- lexer ------------------------------------------------------------ *)

type token =
  | T_value of string  (** %name *)
  | T_symbol of string  (** @name *)
  | T_ident of string
  | T_int of int
  | T_float of float
  | T_string of string
  | T_lparen
  | T_rparen
  | T_lbrace
  | T_rbrace
  | T_lbracket
  | T_rbracket
  | T_comma
  | T_colon
  | T_equal
  | T_plus
  | T_minus
  | T_star
  | T_arrow
  | T_type of Typ.t
  | T_map of Affine_map.t
  | T_eof

let token_to_string = function
  | T_value v -> "%" ^ v
  | T_symbol s -> "@" ^ s
  | T_ident s -> Printf.sprintf "identifier %S" s
  | T_int i -> string_of_int i
  | T_float f -> string_of_float f
  | T_string s -> Printf.sprintf "%S" s
  | T_lparen -> "'('"
  | T_rparen -> "')'"
  | T_lbrace -> "'{'"
  | T_rbrace -> "'}'"
  | T_lbracket -> "'['"
  | T_rbracket -> "']'"
  | T_comma -> "','"
  | T_colon -> "':'"
  | T_equal -> "'='"
  | T_plus -> "'+'"
  | T_minus -> "'-'"
  | T_star -> "'*'"
  | T_arrow -> "'->'"
  | T_type t -> "type " ^ Typ.to_string t
  | T_map m -> "affine_map<" ^ Affine_map.to_string m ^ ">"
  | T_eof -> "end of input"

type ltok = { tok : token; loc : Support.Loc.t }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

(* Parse a type string like "memref<8x8xf32>" or "f32". *)
let rec type_of_string ~loc s =
  let s = String.trim s in
  match s with
  | "f32" -> Typ.F32
  | "f64" -> Typ.F64
  | "i1" -> Typ.I1
  | "i32" -> Typ.I32
  | "i64" -> Typ.I64
  | "index" -> Typ.Index
  | _ ->
      if String.length s > 8 && String.sub s 0 7 = "memref<"
         && s.[String.length s - 1] = '>'
      then begin
        let inner = String.sub s 7 (String.length s - 8) in
        let parts = String.split_on_char 'x' inner in
        match List.rev parts with
        | elem :: rev_dims ->
            let dims =
              List.rev_map
                (fun d ->
                  if d = "?" then Typ.Dynamic
                  else
                    try Typ.Static (int_of_string d)
                    with _ -> D.errorf ~loc "bad memref dimension %S" d)
                rev_dims
            in
            Typ.Mem_ref (dims, type_of_string ~loc elem)
        | [] -> D.errorf ~loc "empty memref type"
      end
      else D.errorf ~loc "unknown type %S" s

(* A tiny hand parser for textual maps (used by affine_map<...> tokens).
   Shape: (d0, d1, ...)[s0, ...] -> (e0, e1, ...) *)
let parse_map_text ~loc s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n') do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos
    else D.errorf ~loc "affine map %S: expected %C" s c
  in
  let ident () =
    skip_ws ();
    let start = !pos in
    while !pos < n && (is_ident_char s.[!pos]) do
      incr pos
    done;
    String.sub s start (!pos - start)
  in
  let int_lit () =
    skip_ws ();
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while !pos < n && is_digit s.[!pos] do
      incr pos
    done;
    int_of_string (String.sub s start (!pos - start))
  in
  let var_list close =
    let vars = ref [] in
    skip_ws ();
    if peek () = Some close then incr pos
    else begin
      let rec go () =
        vars := ident () :: !vars;
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go ()
        | Some c when c = close -> incr pos
        | _ -> D.errorf ~loc "affine map %S: expected ',' or %C" s close
      in
      go ()
    end;
    List.rev !vars
  in
  expect '(';
  let dims = var_list ')' in
  skip_ws ();
  let syms =
    if peek () = Some '[' then begin
      incr pos;
      var_list ']'
    end
    else []
  in
  skip_ws ();
  expect '-';
  expect '>';
  expect '(';
  let dim_index v =
    match List.mapi (fun i x -> (x, i)) dims |> List.assoc_opt v with
    | Some i -> `Dim i
    | None -> (
        match List.mapi (fun i x -> (x, i)) syms |> List.assoc_opt v with
        | Some i -> `Sym i
        | None -> D.errorf ~loc "affine map %S: unknown variable %S" s v)
  in
  (* expr := term (('+'|'-') term)*; term := factor (('*'|floordiv|mod) factor)* *)
  let rec parse_expr () =
    let lhs = ref (parse_term ()) in
    let rec loop () =
      skip_ws ();
      match peek () with
      | Some '+' ->
          incr pos;
          lhs := E.Add (!lhs, parse_term ());
          loop ()
      | Some '-' ->
          incr pos;
          lhs := E.Add (!lhs, E.Mul (E.Const (-1), parse_term ()));
          loop ()
      | _ -> !lhs
    in
    loop ()
  and parse_term () =
    let lhs = ref (parse_factor ()) in
    let rec loop () =
      skip_ws ();
      match peek () with
      | Some '*' ->
          incr pos;
          lhs := E.Mul (!lhs, parse_factor ());
          loop ()
      | Some c when is_ident_start c ->
          let save = !pos in
          let id = ident () in
          if id = "floordiv" then begin
            lhs := E.Floor_div (!lhs, parse_factor ());
            loop ()
          end
          else if id = "mod" then begin
            lhs := E.Mod (!lhs, parse_factor ());
            loop ()
          end
          else begin
            pos := save;
            !lhs
          end
      | _ -> !lhs
    in
    loop ()
  and parse_factor () =
    skip_ws ();
    match peek () with
    | Some '(' ->
        incr pos;
        let e = parse_expr () in
        expect ')';
        e
    | Some c when is_digit c || c = '-' -> E.Const (int_lit ())
    | Some c when is_ident_start c -> (
        match dim_index (ident ()) with
        | `Dim i -> E.Dim i
        | `Sym i -> E.Sym i)
    | _ -> D.errorf ~loc "affine map %S: expected expression" s
  in
  let exprs = ref [ parse_expr () ] in
  let rec more () =
    skip_ws ();
    match peek () with
    | Some ',' ->
        incr pos;
        exprs := parse_expr () :: !exprs;
        more ()
    | Some ')' -> incr pos
    | _ -> D.errorf ~loc "affine map %S: expected ',' or ')'" s
  in
  more ();
  Affine_map.make ~n_dims:(List.length dims) ~n_syms:(List.length syms)
    (List.rev !exprs)

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
  let emit l tok = toks := { tok; loc = l } :: !toks in
  (* Read balanced <...> content after a known prefix. *)
  let angle_content l =
    if peek 0 <> Some '<' then D.errorf ~loc:l "expected '<'";
    advance ();
    let start = !pos in
    let depth = ref 1 in
    let prev = ref ' ' in
    while !depth > 0 do
      (match peek 0 with
      | Some '<' -> incr depth
      (* '->' arrows inside affine maps do not close the bracket. *)
      | Some '>' when !prev <> '-' -> decr depth
      | None -> D.errorf ~loc:l "unterminated '<...>'"
      | Some _ -> ());
      if !depth > 0 then begin
        prev := (match peek 0 with Some c -> c | None -> ' ');
        advance ()
      end
    done;
    let content = String.sub src start (!pos - start) in
    advance ();
    (* skip '>' *)
    content
  in
  let rec go () =
    match peek 0 with
    | None -> emit (loc ()) T_eof
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance ();
        go ()
    | Some '/' when peek 1 = Some '/' ->
        while peek 0 <> None && peek 0 <> Some '\n' do
          advance ()
        done;
        go ()
    | Some '%' ->
        let l = loc () in
        advance ();
        let start = !pos in
        while (match peek 0 with
               | Some c -> is_ident_char c
               | None -> false)
        do
          advance ()
        done;
        emit l (T_value (String.sub src start (!pos - start)));
        go ()
    | Some '@' ->
        let l = loc () in
        advance ();
        let start = !pos in
        while (match peek 0 with
               | Some c -> is_ident_char c
               | None -> false)
        do
          advance ()
        done;
        emit l (T_symbol (String.sub src start (!pos - start)));
        go ()
    | Some '"' ->
        let l = loc () in
        advance ();
        let start = !pos in
        while peek 0 <> Some '"' && peek 0 <> None do
          advance ()
        done;
        if peek 0 = None then D.errorf ~loc:l "unterminated string";
        let s = String.sub src start (!pos - start) in
        advance ();
        emit l (T_string s);
        go ()
    | Some c when is_digit c ->
        let l = loc () in
        let start = !pos in
        (* Floats may be decimal (1.5, 1e9) or hex (0x1.8p+3). *)
        let is_hex = c = '0' && peek 1 = Some 'x' in
        let float_char ch =
          is_digit ch || ch = '.' || ch = 'e' || ch = 'E' || ch = '-'
          || ch = '+'
        in
        let hex_char ch =
          is_digit ch || ch = 'x' || ch = '.'
          || (ch >= 'a' && ch <= 'f')
          || (ch >= 'A' && ch <= 'F')
          || ch = 'p' || ch = '+' || ch = '-'
        in
        if is_hex then
          while (match peek 0 with Some ch -> hex_char ch | None -> false) do
            advance ()
          done
        else begin
          while (match peek 0 with Some ch -> is_digit ch | None -> false) do
            advance ()
          done;
          if
            (match peek 0 with
            | Some ('.' | 'e' | 'E') -> true
            | _ -> false)
          then
            while
              match peek 0 with Some ch -> float_char ch | None -> false
            do
              advance ()
            done
        end;
        let text = String.sub src start (!pos - start) in
        (match int_of_string_opt text with
        | Some i -> emit l (T_int i)
        | None -> (
            match float_of_string_opt text with
            | Some f -> emit l (T_float f)
            | None -> D.errorf ~loc:l "bad numeric literal %S" text));
        go ()
    | Some c when is_ident_start c ->
        let l = loc () in
        let start = !pos in
        while (match peek 0 with
               | Some ch -> is_ident_char ch
               | None -> false)
        do
          advance ()
        done;
        let text = String.sub src start (!pos - start) in
        (match text with
        | "memref" when peek 0 = Some '<' ->
            let content = angle_content l in
            emit l (T_type (type_of_string ~loc:l ("memref<" ^ content ^ ">")))
        | "affine_map" when peek 0 = Some '<' ->
            let content = angle_content l in
            emit l (T_map (parse_map_text ~loc:l content))
        | "f32" -> emit l (T_type Typ.F32)
        | "f64" -> emit l (T_type Typ.F64)
        | "i1" -> emit l (T_type Typ.I1)
        | "i32" -> emit l (T_type Typ.I32)
        | "i64" -> emit l (T_type Typ.I64)
        | "index" -> emit l (T_type Typ.Index)
        | _ -> emit l (T_ident text));
        go ()
    | Some c ->
        let l = loc () in
        let one tok =
          advance ();
          emit l tok
        in
        (match (c, peek 1) with
        | '-', Some '>' ->
            advance ();
            advance ();
            emit l T_arrow
        | '(', _ -> one T_lparen
        | ')', _ -> one T_rparen
        | '{', _ -> one T_lbrace
        | '}', _ -> one T_rbrace
        | '[', _ -> one T_lbracket
        | ']', _ -> one T_rbracket
        | ',', _ -> one T_comma
        | ':', _ -> one T_colon
        | '=', _ -> one T_equal
        | '+', _ -> one T_plus
        | '-', _ -> one T_minus
        | '*', _ -> one T_star
        | _ -> D.errorf ~loc:l "unexpected character %C" c);
        go ()
  in
  go ();
  List.rev !toks

(* ---- parser state ------------------------------------------------------ *)

type state = {
  mutable toks : ltok list;
  values : (string, Core.value) Hashtbl.t;
}

let peek st = match st.toks with [] -> assert false | t :: _ -> t

let peek2 st =
  match st.toks with _ :: t :: _ -> Some t.tok | _ -> None

let next st =
  let t = peek st in
  (match st.toks with [] -> () | _ :: r -> st.toks <- r);
  t

let expect st tok =
  let t = next st in
  if t.tok <> tok then
    D.errorf ~loc:t.loc "expected %s, found %s" (token_to_string tok)
      (token_to_string t.tok)

let expect_value st =
  let t = next st in
  match t.tok with
  | T_value v -> (v, t.loc)
  | other ->
      D.errorf ~loc:t.loc "expected %%value, found %s" (token_to_string other)

let expect_int st =
  let t = next st in
  match t.tok with
  | T_int i -> i
  | other ->
      D.errorf ~loc:t.loc "expected integer, found %s" (token_to_string other)

let expect_type st =
  let t = next st in
  match t.tok with
  | T_type ty -> ty
  | other ->
      D.errorf ~loc:t.loc "expected a type, found %s" (token_to_string other)

let lookup_value st name loc =
  match Hashtbl.find_opt st.values name with
  | Some v -> v
  | None -> D.errorf ~loc "use of undefined value %%%s" name

let define_value st name (v : Core.value) =
  v.Core.v_hint <- Some name;
  Hashtbl.replace st.values name v

(* ---- inline affine expressions over %values ----------------------------- *)

(* Returns (map expr over collected dims, operand list shared via ref). *)
let parse_inline_exprs st =
  let operands = ref [] in
  let dim_of name loc =
    let v = lookup_value st name loc in
    let rec find i = function
      | [] ->
          operands := !operands @ [ v ];
          i
      | v' :: _ when Core.value_equal v v' -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 !operands
  in
  let rec parse_expr () =
    let lhs = ref (parse_term ()) in
    let rec loop () =
      match (peek st).tok with
      | T_plus ->
          ignore (next st);
          lhs := E.Add (!lhs, parse_term ());
          loop ()
      | T_minus ->
          ignore (next st);
          lhs := E.Add (!lhs, E.Mul (E.Const (-1), parse_term ()));
          loop ()
      | _ -> !lhs
    in
    loop ()
  and parse_term () =
    let lhs = ref (parse_factor ()) in
    let rec loop () =
      match (peek st).tok with
      | T_star ->
          ignore (next st);
          lhs := E.Mul (!lhs, parse_factor ());
          loop ()
      | T_ident "floordiv" ->
          ignore (next st);
          lhs := E.Floor_div (!lhs, parse_factor ());
          loop ()
      | T_ident "mod" ->
          ignore (next st);
          lhs := E.Mod (!lhs, parse_factor ());
          loop ()
      | _ -> !lhs
    in
    loop ()
  and parse_factor () =
    let t = next st in
    match t.tok with
    | T_int i -> E.Const i
    | T_minus -> (
        match (next st).tok with
        | T_int i -> E.Const (-i)
        | other ->
            D.errorf ~loc:t.loc "expected integer after '-', found %s"
              (token_to_string other))
    | T_value v -> E.Dim (dim_of v t.loc)
    | T_lparen ->
        let e = parse_expr () in
        expect st T_rparen;
        e
    | other ->
        D.errorf ~loc:t.loc "expected index expression, found %s"
          (token_to_string other)
  in
  let exprs = ref [ parse_expr () ] in
  let rec more () =
    match (peek st).tok with
    | T_comma ->
        ignore (next st);
        exprs := parse_expr () :: !exprs;
        more ()
    | _ -> ()
  in
  more ();
  (List.rev !exprs, !operands)

let exprs_to_bound st exprs operands =
  ignore st;
  (Affine_map.make ~n_dims:(List.length operands) exprs, operands)

(* ---- operations --------------------------------------------------------- *)

let attach b op = ignore (Builder.insert b op)

let rec parse_block_ops st b ~terminator =
  let rec go () =
    match (peek st).tok with
    | T_rbrace -> ()
    | T_eof -> D.errorf ~loc:(peek st).loc "unexpected end of input"
    | _ ->
        parse_op st b;
        go ()
  in
  go ();
  ignore terminator

and parse_op st b =
  let t = peek st in
  (* Scope the op's first-token location over its whole parse: the op it
     builds — and any ops built for nested regions pick up their own
     [parse_op] location instead. *)
  Core.with_loc t.loc @@ fun () ->
  match t.tok with
  | T_value _ -> parse_assignment st b
  | T_ident "builtin.module" -> ignore (parse_module_at st b)
  | T_ident "func.func" -> ignore (parse_func_at st b)
  | T_ident "func.return" ->
      ignore (next st);
      (* Operands (if any) would follow; our funcs return nothing. *)
      ignore (Builder.build b "func.return")
  | T_ident "affine.for" -> parse_affine_for st b
  | T_ident "affine.yield" ->
      ignore (next st);
      ignore (Builder.build b "affine.yield")
  | T_ident "scf.yield" ->
      ignore (next st);
      ignore (Builder.build b "scf.yield")
  | T_ident "scf.for" -> parse_scf_for st b
  | T_ident "affine.store" -> parse_affine_store st b
  | T_ident "affine.matmul" ->
      ignore (next st);
      let ops = parse_value_list st in
      expect st T_colon;
      ignore (parse_type_list st);
      ignore
        (Builder.build b ~operands:ops "affine.matmul")
  | T_ident "memref.dealloc" ->
      ignore (next st);
      let v, loc = expect_value st in
      expect st T_colon;
      ignore (expect_type st);
      ignore
        (Builder.build b ~operands:[ lookup_value st v loc ] "memref.dealloc")
  | T_ident
      (("linalg.matmul" | "linalg.matvec" | "linalg.conv2d_nchw") as name) ->
      ignore (next st);
      let ins = parse_ins_outs st "ins" in
      let outs = parse_ins_outs st "outs" in
      ignore (Builder.build b ~operands:(ins @ outs) name)
  | T_ident "linalg.transpose" ->
      ignore (next st);
      let ins = parse_ins_outs st "ins" in
      let outs = parse_ins_outs st "outs" in
      expect st (T_ident "permutation");
      expect st T_equal;
      let perm = parse_int_list st in
      ignore
        (Builder.build b
           ~operands:(ins @ outs)
           ~attrs:[ ("permutation", Attr.Ints perm) ]
           "linalg.transpose")
  | T_ident "linalg.reshape" ->
      ignore (next st);
      let ins = parse_ins_outs st "ins" in
      let outs = parse_ins_outs st "outs" in
      expect st (T_ident "grouping");
      expect st T_equal;
      let grouping = parse_grouping st in
      ignore
        (Builder.build b
           ~operands:(ins @ outs)
           ~attrs:[ ("grouping", Attr.Grouping grouping) ]
           "linalg.reshape")
  | T_ident "linalg.fill" ->
      ignore (next st);
      expect st (T_ident "value");
      expect st T_equal;
      let v =
        match (next st).tok with
        | T_float f -> f
        | T_int i -> float_of_int i
        | other ->
            D.errorf ~loc:t.loc "expected fill value, found %s"
              (token_to_string other)
      in
      let outs = parse_ins_outs st "outs" in
      ignore
        (Builder.build b ~operands:outs
           ~attrs:[ ("value", Attr.Float v) ]
           "linalg.fill")
  | T_ident "linalg.contract" ->
      ignore (next st);
      expect st (T_ident "indexing_maps");
      expect st T_equal;
      let maps = parse_map_list st in
      let ins = parse_ins_outs st "ins" in
      let outs = parse_ins_outs st "outs" in
      ignore
        (Builder.build b
           ~operands:(ins @ outs)
           ~attrs:
             [ ("indexing_maps", Attr.List (List.map (fun m -> Attr.Map m) maps)) ]
           "linalg.contract")
  | T_ident
      (("blas.sgemm" | "blas.sgemv" | "blas.stranspose"
       | "blas.sreshape_copy" | "blas.sconv2d") as name) ->
      ignore (next st);
      let ops = parse_value_list st in
      expect st T_colon;
      ignore (parse_type_list st);
      let attrs = parse_trailing_attrs st in
      ignore (Builder.build b ~operands:ops ~attrs name)
  | T_string _ -> parse_generic st b ~results:[]
  | other ->
      D.errorf ~loc:t.loc "expected an operation, found %s"
        (token_to_string other)

and parse_value_list st =
  let rec go acc =
    let v, loc = expect_value st in
    let value = lookup_value st v loc in
    match (peek st).tok with
    | T_comma ->
        ignore (next st);
        go (value :: acc)
    | _ -> List.rev (value :: acc)
  in
  go []

and parse_type_list st =
  let rec go acc =
    let ty = expect_type st in
    match (peek st).tok with
    | T_comma ->
        ignore (next st);
        go (ty :: acc)
    | _ -> List.rev (ty :: acc)
  in
  go []

and parse_int_list st =
  expect st T_lbracket;
  let rec go acc =
    match (next st).tok with
    | T_int i -> (
        match (next st).tok with
        | T_comma -> go (i :: acc)
        | T_rbracket -> List.rev (i :: acc)
        | other ->
            D.errorf "expected ',' or ']', found %s" (token_to_string other))
    | T_rbracket -> List.rev acc
    | other -> D.errorf "expected integer, found %s" (token_to_string other)
  in
  go []

and parse_grouping st =
  (* {g, g, ...} where g := int | {int, int, ...} *)
  expect st T_lbrace;
  let parse_group () =
    match (peek st).tok with
    | T_lbrace ->
        ignore (next st);
        let rec ints acc =
          let i = expect_int st in
          match (next st).tok with
          | T_comma -> ints (i :: acc)
          | T_rbrace -> List.rev (i :: acc)
          | other ->
              D.errorf "expected ',' or '}', found %s" (token_to_string other)
        in
        ints []
    | _ -> [ expect_int st ]
  in
  let rec go acc =
    let g = parse_group () in
    match (next st).tok with
    | T_comma -> go (g :: acc)
    | T_rbrace -> List.rev (g :: acc)
    | other -> D.errorf "expected ',' or '}', found %s" (token_to_string other)
  in
  go []

and parse_map_list st =
  expect st T_lbracket;
  let rec go acc =
    let m =
      match (next st).tok with
      | T_map m -> m
      | other ->
          D.errorf "expected affine_map<...>, found %s" (token_to_string other)
    in
    match (next st).tok with
    | T_comma -> go (m :: acc)
    | T_rbracket -> List.rev (m :: acc)
    | other -> D.errorf "expected ',' or ']', found %s" (token_to_string other)
  in
  go []

and parse_ins_outs st kw =
  expect st (T_ident kw);
  expect st T_lparen;
  let vs = parse_value_list st in
  expect st T_colon;
  ignore (parse_type_list st);
  expect st T_rparen;
  vs

and parse_trailing_attrs st =
  let rec go acc =
    match ((peek st).tok, peek2 st) with
    | T_ident name, Some T_equal ->
        ignore (next st);
        ignore (next st);
        let value =
          match (peek st).tok with
          | T_lbracket -> Attr.Ints (parse_int_list st)
          | T_lbrace -> Attr.Grouping (parse_grouping st)
          | T_int i ->
              ignore (next st);
              Attr.Int i
          | T_float f ->
              ignore (next st);
              Attr.Float f
          | T_ident "true" ->
              ignore (next st);
              Attr.Bool true
          | T_ident "false" ->
              ignore (next st);
              Attr.Bool false
          | other ->
              D.errorf "unsupported attribute value %s" (token_to_string other)
        in
        go ((name, value) :: acc)
    | _ -> List.rev acc
  in
  go []

and parse_assignment st b =
  (* %r[, %r2 ...] = <op> *)
  let rec results acc =
    let v, _ = expect_value st in
    match (next st).tok with
    | T_comma -> results (v :: acc)
    | T_equal -> List.rev (v :: acc)
    | other ->
        D.errorf "expected ',' or '=', found %s" (token_to_string other)
  in
  let results = results [] in
  let t = peek st in
  match t.tok with
  | T_ident "affine.load" ->
      ignore (next st);
      let memref_name, mloc = expect_value st in
      let memref = lookup_value st memref_name mloc in
      expect st T_lbracket;
      let exprs, operands =
        if (peek st).tok = T_rbracket then ([], [])
        else parse_inline_exprs st
      in
      expect st T_rbracket;
      expect st T_colon;
      ignore (expect_type st);
      let map, operands = exprs_to_bound st exprs operands in
      let op =
        Builder.build b
          ~operands:(memref :: operands)
          ~result_types:[ Typ.memref_elem memref.Core.v_typ ]
          ~attrs:[ ("map", Attr.Map map) ]
          "affine.load"
      in
      bind_results st results op
  | T_ident "affine.apply" ->
      ignore (next st);
      let exprs, operands = parse_inline_exprs st in
      let map, operands = exprs_to_bound st exprs operands in
      let op =
        Builder.build b ~operands ~result_types:[ Typ.Index ]
          ~attrs:[ ("map", Attr.Map map) ]
          "affine.apply"
      in
      bind_results st results op
  | T_ident "arith.constant" ->
      ignore (next st);
      let value =
        match (next st).tok with
        | T_int i -> `I i
        | T_float f -> `F f
        | T_minus -> (
            match (next st).tok with
            | T_int i -> `I (-i)
            | T_float f -> `F (-.f)
            | other ->
                D.errorf "expected number after '-', found %s"
                  (token_to_string other))
        | other ->
            D.errorf "expected constant value, found %s"
              (token_to_string other)
      in
      expect st T_colon;
      let ty = expect_type st in
      let attr =
        match (value, ty) with
        | `I i, t when Typ.is_float t -> Attr.Float (float_of_int i)
        | `I i, _ -> Attr.Int i
        | `F f, _ -> Attr.Float f
      in
      let op =
        Builder.build b ~result_types:[ ty ]
          ~attrs:[ ("value", attr) ]
          "arith.constant"
      in
      bind_results st results op
  | T_ident
      (("arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
       | "arith.addi" | "arith.subi" | "arith.muli" | "arith.floordivsi"
       | "arith.remsi") as name) ->
      ignore (next st);
      let ops = parse_value_list st in
      expect st T_colon;
      let ty = expect_type st in
      let op = Builder.build b ~operands:ops ~result_types:[ ty ] name in
      bind_results st results op
  | T_ident "memref.alloc" ->
      ignore (next st);
      expect st T_lparen;
      expect st T_rparen;
      expect st T_colon;
      let ty = expect_type st in
      let op = Builder.build b ~result_types:[ ty ] "memref.alloc" in
      bind_results st results op
  | T_string _ -> parse_generic st b ~results
  | other ->
      D.errorf ~loc:t.loc "expected an operation after '=', found %s"
        (token_to_string other)

and bind_results st names (op : Core.op) =
  if List.length names <> Core.num_results op then
    D.errorf "operation %s produces %d results, %d named" op.Core.o_name
      (Core.num_results op) (List.length names);
  List.iteri (fun i name -> define_value st name (Core.result op i)) names

and parse_generic st b ~results =
  let name =
    match (next st).tok with
    | T_string s -> s
    | other -> D.errorf "expected op name, found %s" (token_to_string other)
  in
  expect st T_lparen;
  let operands =
    if (peek st).tok = T_rparen then []
    else parse_value_list st
  in
  expect st T_rparen;
  let attrs =
    if (peek st).tok = T_lbrace then begin
      ignore (next st);
      let rec go acc =
        match (peek st).tok with
        | T_rbrace ->
            ignore (next st);
            List.rev acc
        | _ -> (
            let aname =
              match (next st).tok with
              | T_ident s -> s
              | other ->
                  D.errorf "expected attribute name, found %s"
                    (token_to_string other)
            in
            expect st T_equal;
            let value =
              match (peek st).tok with
              | T_lbracket -> Attr.Ints (parse_int_list st)
              | T_int i ->
                  ignore (next st);
                  Attr.Int i
              | T_float f ->
                  ignore (next st);
                  Attr.Float f
              | T_map m ->
                  ignore (next st);
                  Attr.Map m
              | T_string s ->
                  ignore (next st);
                  Attr.Str s
              | other ->
                  D.errorf "unsupported attribute value %s"
                    (token_to_string other)
            in
            match (peek st).tok with
            | T_comma ->
                ignore (next st);
                go ((aname, value) :: acc)
            | _ -> go ((aname, value) :: acc))
      in
      go []
    end
    else []
  in
  expect st T_colon;
  expect st T_lparen;
  let _operand_types =
    if (peek st).tok = T_rparen then [] else parse_type_list st
  in
  expect st T_rparen;
  expect st T_arrow;
  expect st T_lparen;
  let result_types =
    if (peek st).tok = T_rparen then [] else parse_type_list st
  in
  expect st T_rparen;
  let op = Builder.build b ~operands ~attrs ~result_types name in
  bind_results st results op

and parse_affine_store st b =
  ignore (next st);
  let v, vloc = expect_value st in
  expect st T_comma;
  let memref_name, mloc = expect_value st in
  let memref = lookup_value st memref_name mloc in
  expect st T_lbracket;
  let exprs, operands =
    if (peek st).tok = T_rbracket then ([], []) else parse_inline_exprs st
  in
  expect st T_rbracket;
  expect st T_colon;
  ignore (expect_type st);
  let map, operands = exprs_to_bound st exprs operands in
  ignore
    (Builder.build b
       ~operands:((lookup_value st v vloc :: memref :: operands))
       ~attrs:[ ("map", Attr.Map map) ]
       "affine.store")

and parse_bound st ~minimize =
  (* expr | max(...) | min(...) *)
  let kw = if minimize then "min" else "max" in
  match ((peek st).tok, peek2 st) with
  | T_ident k, Some T_lparen when k = kw ->
      ignore (next st);
      ignore (next st);
      let exprs, operands = parse_inline_exprs st in
      expect st T_rparen;
      exprs_to_bound st exprs operands
  | _ ->
      let exprs, operands = parse_inline_exprs st in
      (match exprs with
      | [ _ ] -> ()
      | _ -> D.errorf "loop bound must be a single expression or %s(...)" kw);
      exprs_to_bound st exprs operands

and parse_affine_for st b =
  ignore (next st);
  let iv_name, _ = expect_value st in
  expect st T_equal;
  let lb_map, lb_ops = parse_bound st ~minimize:false in
  expect st (T_ident "to");
  let ub_map, ub_ops = parse_bound st ~minimize:true in
  let step =
    match (peek st).tok with
    | T_ident "step" ->
        ignore (next st);
        expect_int st
    | _ -> 1
  in
  expect st T_lbrace;
  let block = Core.create_block ~hints:[ iv_name ] [ Typ.Index ] in
  define_value st iv_name block.Core.b_args.(0);
  let region = Core.create_region [ block ] in
  let op =
    Core.create_op
      ~operands:(lb_ops @ ub_ops)
      ~attrs:
        [
          ("lower_bound", Attr.Map lb_map);
          ("upper_bound", Attr.Map ub_map);
          ("step", Attr.Int step);
        ]
      ~regions:[ region ] "affine.for"
  in
  attach b op;
  let body_builder = Builder.at_end block in
  parse_block_ops st body_builder ~terminator:"affine.yield";
  expect st T_rbrace;
  (* Ensure the terminator exists (printer prints it, but be lenient). *)
  (match List.rev (Core.ops_of_block block) with
  | last :: _ when String.equal last.Core.o_name "affine.yield" -> ()
  | _ -> ignore (Builder.build body_builder "affine.yield"))

and parse_scf_for st b =
  ignore (next st);
  let iv_name, _ = expect_value st in
  expect st T_equal;
  let lb, lloc = expect_value st in
  expect st (T_ident "to");
  let ub, uloc = expect_value st in
  expect st (T_ident "step");
  let sv, sloc = expect_value st in
  expect st T_lbrace;
  let block = Core.create_block ~hints:[ iv_name ] [ Typ.Index ] in
  define_value st iv_name block.Core.b_args.(0);
  let region = Core.create_region [ block ] in
  let op =
    Core.create_op
      ~operands:
        [
          lookup_value st lb lloc;
          lookup_value st ub uloc;
          lookup_value st sv sloc;
        ]
      ~regions:[ region ] "scf.for"
  in
  attach b op;
  let body_builder = Builder.at_end block in
  parse_block_ops st body_builder ~terminator:"scf.yield";
  expect st T_rbrace;
  match List.rev (Core.ops_of_block block) with
  | last :: _ when String.equal last.Core.o_name "scf.yield" -> ()
  | _ -> ignore (Builder.build body_builder "scf.yield")

and parse_func_at st b =
  expect st (T_ident "func.func");
  let name =
    match (next st).tok with
    | T_symbol s -> s
    | other -> D.errorf "expected @name, found %s" (token_to_string other)
  in
  expect st T_lparen;
  let rec params acc =
    match (peek st).tok with
    | T_rparen ->
        ignore (next st);
        List.rev acc
    | T_comma ->
        ignore (next st);
        params acc
    | _ ->
        let v, _ = expect_value st in
        expect st T_colon;
        let ty = expect_type st in
        params ((v, ty) :: acc)
  in
  let params = params [] in
  expect st T_lbrace;
  let f =
    Core.create_func ~name
      ~arg_types:(List.map snd params)
      ~arg_hints:(List.map fst params)
      ()
  in
  List.iteri
    (fun i (pname, _) ->
      define_value st pname (Core.func_entry f).Core.b_args.(i))
    params;
  attach b f;
  let body_builder = Builder.at_end (Core.func_entry f) in
  parse_block_ops st body_builder ~terminator:"func.return";
  expect st T_rbrace;
  f

and parse_module_at st b =
  expect st (T_ident "builtin.module");
  expect st T_lbrace;
  let m = Core.create_module () in
  attach b m;
  let inner = Builder.at_end (Core.module_block m) in
  parse_block_ops st inner ~terminator:"";
  expect st T_rbrace;
  m

(* ---- entry points -------------------------------------------------------- *)

let with_state ~file src k =
  let st = { toks = tokenize ~file src; values = Hashtbl.create 64 } in
  let result = k st in
  (match (peek st).tok with
  | T_eof -> ()
  | other ->
      D.errorf ~loc:(peek st).loc "trailing input: %s" (token_to_string other));
  result

let parse_module ?(file = "<ir>") src =
  with_state ~file src (fun st ->
      (* Parse into a scratch holder block, then extract. *)
      let holder = Core.create_block [] in
      let b = Builder.at_end holder in
      let m = parse_module_at st b in
      Core.detach_op m;
      Verifier.verify m;
      m)
