module D = Support.Diag
module E = Affine_expr

(* The textual IR grammar, read from one token stream ([x,*] is a
   possibly empty, [x,+] a non-empty comma-separated list; [comma_list]
   and [list_to] read every such list):

   module  := 'builtin.module' '{' op* '}'
   op      := (%v,+ '=')? (custom-form | generic)
   generic := STRING '(' %v,* ')' ('{' (IDENT '=' attr),* '}')?
              ':' '(' type,* ')' '->' '(' type,* ')'
   attr    := 'unit' | 'true' | 'false' | STRING | type | map
            | '-'? (INT | FLOAT | 'nan' | 'infinity')
            | '[' attr,* ']'                   (Ints when every item is INT)
            | '{' (int | '{' int,* '}'),* '}'  (a grouping; int := '-'? INT)
   map     := 'affine_map' '<' '(' IDENT,* ')' ('[' IDENT,* ']')?
              '->' '(' expr,+ ')' '>'
   expr    := term (('+' | '-') term)*
   term    := factor (('*' | 'floordiv' | 'mod') factor)*
              (a '*' has a constant side; a divisor is a non-zero constant)
   factor  := INT | '-' INT | var | '(' expr ')'

   A [var] is a dimension or symbol name of the map's header, or, in
   inline subscripts and loop bounds, a %value: each distinct value
   becomes the next dimension of the op's map. The custom forms mirror
   {!Printer}, the [attr] cases {!Attr.add_to_buffer}. Types are the
   scalar names or a [memref<...>] token. Every error is a
   {!Support.Diag.Error} at the offending token. *)

(* ---- lexer ------------------------------------------------------------ *)

type token =
  | T_value of string  (** %name *)
  | T_symbol of string  (** @name *)
  | T_ident of string
  | T_int of int
  | T_float of float
  | T_string of string  (** the text between the quotes, escapes kept *)
  | T_lparen
  | T_rparen
  | T_lbrace
  | T_rbrace
  | T_lbracket
  | T_rbracket
  | T_langle
  | T_rangle
  | T_comma
  | T_colon
  | T_equal
  | T_plus
  | T_minus
  | T_star
  | T_arrow
  | T_type of Typ.t  (** memref<...> *)
  | T_eof

let token_to_string = function
  | T_value v -> "%" ^ v
  | T_symbol s -> "@" ^ s
  | T_ident s -> Printf.sprintf "identifier %S" s
  | T_int i -> string_of_int i
  | T_float f -> string_of_float f
  | T_string s -> "\"" ^ s ^ "\""
  | T_lparen -> "'('"
  | T_rparen -> "')'"
  | T_lbrace -> "'{'"
  | T_rbrace -> "'}'"
  | T_lbracket -> "'['"
  | T_rbracket -> "']'"
  | T_langle -> "'<'"
  | T_rangle -> "'>'"
  | T_comma -> "','"
  | T_colon -> "':'"
  | T_equal -> "'='"
  | T_plus -> "'+'"
  | T_minus -> "'-'"
  | T_star -> "'*'"
  | T_arrow -> "'->'"
  | T_type t -> "type " ^ Typ.to_string t
  | T_eof -> "end of input"

type ltok = { tok : token; loc : Support.Loc.t }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

let scalar_type = function
  | "f32" -> Some Typ.F32
  | "f64" -> Some Typ.F64
  | "i1" -> Some Typ.I1
  | "i32" -> Some Typ.I32
  | "i64" -> Some Typ.I64
  | "index" -> Some Typ.Index
  | _ -> None

(* A type string: a scalar name or memref<DxDx...xELEM>, each D an
   integer or '?'. *)
let rec type_of_string ~loc s =
  let s = String.trim s in
  let n = String.length s in
  match scalar_type s with
  | Some t -> t
  | None when n > 8 && String.sub s 0 7 = "memref<" && s.[n - 1] = '>' ->
      let rec shape s =
        let dim d =
          if d = "?" then Some Typ.Dynamic
          else Option.map (fun i -> Typ.Static i) (int_of_string_opt d)
        in
        match String.index_opt s 'x' with
        | Some i -> (
            match dim (String.sub s 0 i) with
            | Some d ->
                let dims, elem =
                  shape (String.sub s (i + 1) (String.length s - i - 1))
                in
                (d :: dims, elem)
            | None -> ([], s))
        | None -> ([], s)
      in
      let dims, elem = shape (String.sub s 7 (n - 8)) in
      Typ.Mem_ref (dims, type_of_string ~loc elem)
  | None -> D.errorf ~loc "unknown type %S" s

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
          if peek 0 = Some '\\' && peek 1 <> None then advance ();
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
        (* Digits right after a '-' are the magnitude of a negative literal,
           so 2^62, one past max_int, reads as min_int: the '-' then leaves
           it unchanged ([-min_int = min_int]). *)
        let int =
          match int_of_string_opt text with
          | None when start > 0 && src.[start - 1] = '-' ->
              int_of_string_opt ("-" ^ text)
          | i -> i
        in
        (match int with
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
        if text = "memref" && peek 0 = Some '<' then begin
          (* The balanced <...> goes to [type_of_string] whole. *)
          let depth = ref 0 in
          while
            (match peek 0 with
            | Some '<' -> incr depth
            | Some '>' -> decr depth
            | None -> D.errorf ~loc:l "unterminated '<...>'"
            | Some _ -> ());
            advance ();
            !depth > 0
          do
            ()
          done;
          emit l
            (T_type
               (type_of_string ~loc:l (String.sub src start (!pos - start))))
        end
        else emit l (T_ident text);
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
        | '<', _ -> one T_langle
        | '>', _ -> one T_rangle
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
  mutable toks : ltok list;  (** never empty: [next] keeps the final T_eof *)
  values : (string, Core.value) Hashtbl.t;
}

let peek st = List.hd st.toks

let peek2 st =
  match st.toks with _ :: t :: _ -> Some t.tok | _ -> None

let next st =
  match st.toks with
  | t :: (_ :: _ as rest) ->
      st.toks <- rest;
      t
  | _ -> peek st

let fail (t : ltok) fmt = D.errorf ~loc:t.loc fmt

let unexpected t what =
  fail t "expected %s, found %s" what (token_to_string t.tok)

let expect st tok =
  let t = next st in
  if t.tok <> tok then unexpected t (token_to_string tok)

let accept st tok =
  (peek st).tok = tok
  && begin
       ignore (next st);
       true
     end

(* [item (',' item)*] *)
let comma_list st item =
  let rec go acc =
    let x = item st in
    if accept st T_comma then go (x :: acc) else List.rev (x :: acc)
  in
  go []

(* [item,* close], the opening token already read. *)
let list_to st close item =
  if accept st close then []
  else begin
    let xs = comma_list st item in
    expect st close;
    xs
  end

let int_token st =
  let t = next st in
  match t.tok with T_int i -> i | _ -> unexpected t "an integer"

let int_literal st = if accept st T_minus then -int_token st else int_token st

let ident st =
  let t = next st in
  match t.tok with T_ident s -> s | _ -> unexpected t "an identifier"

let type_of_token t =
  match t.tok with T_type ty -> Some ty | T_ident s -> scalar_type s | _ -> None

let typ st =
  let t = next st in
  match type_of_token t with Some ty -> ty | None -> unexpected t "a type"

let value_name st =
  let t = next st in
  match t.tok with T_value v -> v | _ -> unexpected t "%value"

let lookup st (t : ltok) name =
  match Hashtbl.find_opt st.values name with
  | Some v -> v
  | None -> fail t "use of undefined value %%%s" name

let value st =
  let t = next st in
  match t.tok with T_value v -> lookup st t v | _ -> unexpected t "%value"

let define_value st name (v : Core.value) =
  v.Core.v_hint <- Some name;
  Hashtbl.replace st.values name v

(* ---- affine expressions, maps and attributes ----------------------------- *)

(* [var] resolves a token that is not an integer, '-' or '('. *)
let affine_expr st ~var =
  let rec expr () =
    let rec loop lhs =
      match (peek st).tok with
      | T_plus ->
          ignore (next st);
          loop (E.Add (lhs, term ()))
      | T_minus ->
          ignore (next st);
          loop (E.Add (lhs, E.Mul (E.Const (-1), term ())))
      | _ -> lhs
    in
    loop (term ())
  (* Products and divisions stay affine, as in MLIR: a product needs a
     constant side and a divisor must be a non-zero constant, else the
     operator's token is the error. *)
  and term () =
    let rec loop lhs =
      let t = peek st in
      match t.tok with
      | T_star ->
          ignore (next st);
          let rhs = factor () in
          if E.is_constant lhs = None && E.is_constant rhs = None then
            fail t "non-affine product: neither side of '*' is a constant";
          loop (E.Mul (lhs, rhs))
      | T_ident ("floordiv" | "mod" as op) ->
          ignore (next st);
          let rhs = factor () in
          (match E.is_constant rhs with
          | Some 0 -> fail t "%s by zero" op
          | Some _ -> ()
          | None -> fail t "non-affine %s: the divisor is not a constant" op);
          loop (if op = "mod" then E.Mod (lhs, rhs) else E.Floor_div (lhs, rhs))
      | _ -> lhs
    in
    loop (factor ())
  and factor () =
    let t = next st in
    match t.tok with
    | T_int i -> E.Const i
    | T_minus -> E.Const (-int_token st)
    | T_lparen ->
        let e = expr () in
        expect st T_rparen;
        e
    | _ -> var t
  in
  expr ()

let not_an_expr t = unexpected t "an index expression"

(* An op's map over inline expressions: [read item] reads the expression
   list, and each distinct %value becomes the next dimension. *)
let applied_map st read =
  let operands = ref [] in
  let var t =
    match t.tok with
    | T_value name ->
        let v = lookup st t name in
        let rec find i = function
          | [] ->
              operands := !operands @ [ v ];
              i
          | v' :: _ when Core.value_equal v v' -> i
          | _ :: rest -> find (i + 1) rest
        in
        E.Dim (find 0 !operands)
    | _ -> not_an_expr t
  in
  let exprs = read (fun st -> affine_expr st ~var) in
  (Affine_map.make ~n_dims:(List.length !operands) exprs, !operands)

(* After the 'affine_map' identifier. *)
let affine_map st =
  expect st T_langle;
  expect st T_lparen;
  let dims = list_to st T_rparen ident in
  let syms = if accept st T_lbracket then list_to st T_rbracket ident else [] in
  expect st T_arrow;
  expect st T_lparen;
  let rec index v i = function
    | [] -> None
    | x :: _ when String.equal x v -> Some i
    | _ :: rest -> index v (i + 1) rest
  in
  let var t =
    match t.tok with
    | T_ident v -> (
        match (index v 0 dims, index v 0 syms) with
        | Some i, _ -> E.Dim i
        | None, Some i -> E.Sym i
        | None, None -> fail t "unknown affine map variable %S" v)
    | _ -> not_an_expr t
  in
  let exprs = comma_list st (fun st -> affine_expr st ~var) in
  expect st T_rparen;
  expect st T_rangle;
  Affine_map.make ~n_dims:(List.length dims) ~n_syms:(List.length syms) exprs

let unescape t s =
  try Scanf.unescaped s
  with Scanf.Scan_failure _ -> fail t "bad escape in string \"%s\"" s

let rec attr_value st =
  let t = next st in
  match t.tok with
  | T_ident "unit" -> Attr.Unit
  | T_ident "true" -> Attr.Bool true
  | T_ident "false" -> Attr.Bool false
  | T_ident "affine_map" -> Attr.Map (affine_map st)
  | T_string s -> Attr.Str (unescape t s)
  | T_lbracket ->
      let items = list_to st T_rbracket attr_value in
      if List.for_all (function Attr.Int _ -> true | _ -> false) items then
        Attr.Ints (List.map Attr.get_int items)
      else Attr.List items
  | T_lbrace ->
      let group st =
        if accept st T_lbrace then list_to st T_rbrace int_literal
        else [ int_literal st ]
      in
      Attr.Grouping (list_to st T_rbrace group)
  | T_minus -> number ~neg:true (next st)
  | _ -> (
      match type_of_token t with
      | Some ty -> Attr.Type ty
      | None -> number ~neg:false t)

and number ~neg t =
  let sign f = if neg then -.f else f in
  match t.tok with
  | T_int i -> Attr.Int (if neg then -i else i)
  | T_float f -> Attr.Float (sign f)
  | T_ident "nan" -> Attr.Float (sign Float.nan)
  | T_ident "infinity" -> Attr.Float (sign Float.infinity)
  | _ -> unexpected t "an attribute value"

let named_attr st =
  let name = ident st in
  expect st T_equal;
  (name, attr_value st)

(* ---- operations --------------------------------------------------------- *)

let attach b op = ignore (Builder.insert b op)

let bind_results st (t : ltok) names (op : Core.op) =
  if List.length names <> Core.num_results op then
    fail t "operation %s produces %d results, %d named" op.Core.o_name
      (Core.num_results op) (List.length names);
  List.iteri (fun i name -> define_value st name (Core.result op i)) names

(* The operands of a custom form, then ':' and their types. *)
let typed_values st =
  let vs = comma_list st value in
  expect st T_colon;
  ignore (comma_list st typ);
  vs

(* ins(%a, %b : t, t) / outs(...) *)
let ins_outs st kw =
  expect st (T_ident kw);
  expect st T_lparen;
  let vs = typed_values st in
  expect st T_rparen;
  vs

(* [key = attr] after a custom form's operands. *)
let keyword_attr st key =
  expect st (T_ident key);
  expect st T_equal;
  attr_value st

(* A subscript list [e,*] after a memref: the map and its operands. *)
let subscripts st =
  expect st T_lbracket;
  applied_map st (fun e -> list_to st T_rbracket e)

(* expr | max(e,+) for a lower bound, expr | min(e,+) for an upper one. *)
let bound st kw =
  applied_map st (fun e ->
      match ((peek st).tok, peek2 st) with
      | T_ident k, Some T_lparen when k = kw ->
          ignore (next st);
          ignore (next st);
          let es = comma_list st e in
          expect st T_rparen;
          es
      | _ -> [ e st ])

let rec parse_block_ops st b =
  match (peek st).tok with
  | T_rbrace -> ()
  | T_eof -> fail (peek st) "unexpected end of input"
  | _ ->
      parse_op st b;
      parse_block_ops st b

and parse_op st b =
  let t = peek st in
  (* Scope the op's first-token location over its whole parse: the op it
     builds — and any ops built for nested regions pick up their own
     [parse_op] location instead. *)
  Core.with_loc t.loc @@ fun () ->
  match t.tok with
  | T_value _ ->
      let results = comma_list st value_name in
      expect st T_equal;
      parse_assignment st b results
  | T_ident "builtin.module" -> ignore (parse_module_at st b)
  | T_ident "func.func" -> parse_func_at st b
  | T_ident (("func.return" | "affine.yield" | "scf.yield") as name) ->
      ignore (next st);
      (* Operands (if any) would follow; our terminators carry none. *)
      ignore (Builder.build b name)
  | T_ident "affine.for" -> parse_affine_for st b
  | T_ident "scf.for" -> parse_scf_for st b
  | T_ident "affine.store" ->
      ignore (next st);
      let v = value st in
      expect st T_comma;
      let memref = value st in
      let map, operands = subscripts st in
      expect st T_colon;
      ignore (typ st);
      ignore
        (Builder.build b
           ~operands:(v :: memref :: operands)
           ~attrs:[ ("map", Attr.Map map) ]
           "affine.store")
  | T_ident "affine.matmul" ->
      ignore (next st);
      ignore (Builder.build b ~operands:(typed_values st) "affine.matmul")
  | T_ident "memref.dealloc" ->
      ignore (next st);
      ignore (Builder.build b ~operands:(typed_values st) "memref.dealloc")
  | T_ident
      (("linalg.matmul" | "linalg.matvec" | "linalg.conv2d_nchw") as name) ->
      ignore (next st);
      let ins = ins_outs st "ins" in
      let outs = ins_outs st "outs" in
      ignore (Builder.build b ~operands:(ins @ outs) name)
  | T_ident (("linalg.transpose" | "linalg.reshape") as name) ->
      ignore (next st);
      let ins = ins_outs st "ins" in
      let outs = ins_outs st "outs" in
      let key =
        if name = "linalg.transpose" then "permutation" else "grouping"
      in
      let a = keyword_attr st key in
      ignore (Builder.build b ~operands:(ins @ outs) ~attrs:[ (key, a) ] name)
  | T_ident "linalg.fill" ->
      ignore (next st);
      let v =
        match keyword_attr st "value" with
        | Attr.Int i -> Attr.Float (float_of_int i)
        | a -> a
      in
      let outs = ins_outs st "outs" in
      ignore
        (Builder.build b ~operands:outs ~attrs:[ ("value", v) ] "linalg.fill")
  | T_ident "linalg.contract" ->
      ignore (next st);
      let maps = keyword_attr st "indexing_maps" in
      let ins = ins_outs st "ins" in
      let outs = ins_outs st "outs" in
      ignore
        (Builder.build b
           ~operands:(ins @ outs)
           ~attrs:[ ("indexing_maps", maps) ]
           "linalg.contract")
  | T_ident
      (("blas.sgemm" | "blas.sgemv" | "blas.stranspose"
       | "blas.sreshape_copy" | "blas.sconv2d") as name) ->
      ignore (next st);
      let operands = typed_values st in
      let rec attrs () =
        match ((peek st).tok, peek2 st) with
        | T_ident _, Some T_equal ->
            let a = named_attr st in
            a :: attrs ()
        | _ -> []
      in
      ignore (Builder.build b ~operands ~attrs:(attrs ()) name)
  | T_string _ -> parse_generic st b []
  | _ -> unexpected t "an operation"

and parse_assignment st b results =
  let t = next st in
  let build ?operands ?attrs ty name =
    bind_results st t results
      (Builder.build b ?operands ~result_types:[ ty ] ?attrs name)
  in
  match t.tok with
  | T_ident "affine.load" ->
      let mt = peek st in
      let memref = value st in
      let elem =
        match memref.Core.v_typ with
        | Typ.Mem_ref (_, elem) -> elem
        | ty ->
            fail mt "affine.load: expected a memref, found %s"
              (Typ.to_string ty)
      in
      let map, operands = subscripts st in
      expect st T_colon;
      ignore (typ st);
      build ~operands:(memref :: operands)
        ~attrs:[ ("map", Attr.Map map) ]
        elem "affine.load"
  | T_ident "affine.apply" ->
      let map, operands = applied_map st (fun e -> comma_list st e) in
      build ~operands ~attrs:[ ("map", Attr.Map map) ] Typ.Index "affine.apply"
  | T_ident "arith.constant" ->
      let neg = accept st T_minus in
      let value = number ~neg (next st) in
      expect st T_colon;
      let ty = typ st in
      let value =
        match value with
        | Attr.Int i when Typ.is_float ty -> Attr.Float (float_of_int i)
        | v -> v
      in
      build ~attrs:[ ("value", value) ] ty "arith.constant"
  | T_ident
      (("arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
       | "arith.addi" | "arith.subi" | "arith.muli" | "arith.floordivsi"
       | "arith.remsi") as name) ->
      let operands = comma_list st value in
      expect st T_colon;
      build ~operands (typ st) name
  | T_ident "memref.alloc" ->
      expect st T_lparen;
      expect st T_rparen;
      expect st T_colon;
      build (typ st) "memref.alloc"
  | T_string name -> parse_generic_at st b results t name
  | _ -> unexpected t "an operation after '='"

and parse_generic st b results =
  let t = next st in
  match t.tok with
  | T_string name -> parse_generic_at st b results t name
  | _ -> unexpected t "an op name"

and parse_generic_at st b results t name =
  expect st T_lparen;
  let operands = list_to st T_rparen value in
  let attrs =
    if accept st T_lbrace then list_to st T_rbrace named_attr else []
  in
  expect st T_colon;
  expect st T_lparen;
  ignore (list_to st T_rparen typ);
  expect st T_arrow;
  expect st T_lparen;
  let result_types = list_to st T_rparen typ in
  bind_results st t results
    (Builder.build b ~operands ~attrs ~result_types name)

(* The body of a loop whose op is already attached: a block of ops ending
   in [terminator], which is added when the text leaves it out. *)
and parse_loop_body st block terminator =
  expect st T_lbrace;
  let body_builder = Builder.at_end block in
  parse_block_ops st body_builder;
  expect st T_rbrace;
  match List.rev (Core.ops_of_block block) with
  | last :: _ when String.equal last.Core.o_name terminator -> ()
  | _ -> ignore (Builder.build body_builder terminator)

and parse_affine_for st b =
  ignore (next st);
  let iv_name = value_name st in
  expect st T_equal;
  let lb_map, lb_ops = bound st "max" in
  expect st (T_ident "to");
  let ub_map, ub_ops = bound st "min" in
  let step = if accept st (T_ident "step") then int_literal st else 1 in
  let block = Core.create_block ~hints:[ iv_name ] [ Typ.Index ] in
  define_value st iv_name block.Core.b_args.(0);
  attach b
    (Core.create_op
       ~operands:(lb_ops @ ub_ops)
       ~attrs:
         [
           ("lower_bound", Attr.Map lb_map);
           ("upper_bound", Attr.Map ub_map);
           ("step", Attr.Int step);
         ]
       ~regions:[ Core.create_region [ block ] ]
       "affine.for");
  parse_loop_body st block "affine.yield"

and parse_scf_for st b =
  ignore (next st);
  let iv_name = value_name st in
  expect st T_equal;
  let lb = value st in
  expect st (T_ident "to");
  let ub = value st in
  expect st (T_ident "step");
  let step = value st in
  let block = Core.create_block ~hints:[ iv_name ] [ Typ.Index ] in
  define_value st iv_name block.Core.b_args.(0);
  attach b
    (Core.create_op ~operands:[ lb; ub; step ]
       ~regions:[ Core.create_region [ block ] ]
       "scf.for");
  parse_loop_body st block "scf.yield"

and parse_func_at st b =
  ignore (next st);
  let t = next st in
  let name = match t.tok with T_symbol s -> s | _ -> unexpected t "@name" in
  expect st T_lparen;
  let params =
    list_to st T_rparen (fun st ->
        let v = value_name st in
        expect st T_colon;
        (v, typ st))
  in
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
  expect st T_lbrace;
  parse_block_ops st (Builder.at_end (Core.func_entry f));
  expect st T_rbrace

and parse_module_at st b =
  expect st (T_ident "builtin.module");
  expect st T_lbrace;
  let m = Core.create_module () in
  attach b m;
  parse_block_ops st (Builder.at_end (Core.module_block m));
  expect st T_rbrace;
  m

(* ---- entry points -------------------------------------------------------- *)

let parse_module ?(file = "<ir>") src =
  let st = { toks = tokenize ~file src; values = Hashtbl.create 64 } in
  (* Parse into a scratch holder block, then extract. *)
  let holder = Core.create_block [] in
  let m = parse_module_at st (Builder.at_end holder) in
  let t = peek st in
  if t.tok <> T_eof then fail t "trailing input: %s" (token_to_string t.tok);
  Core.detach_op m;
  Verifier.verify m;
  m
