type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Malformed of string

(* The reader is a recursive descent over byte offsets into [src]. It
   copies each run of plain string bytes whole and converts short
   integers without [float_of_string]. Every error carries the offset the
   reader had reached when it gave up; test/test_support.ml pins them. *)
type st = { src : string; len : int; mutable pos : int }

let fail st msg = raise (Malformed (Printf.sprintf "at byte %d: %s" st.pos msg))

let rec skip_ws st =
  if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        st.pos <- st.pos + 1;
        skip_ws st
    | _ -> ()

let expect st c =
  if st.pos >= st.len then
    fail st (Printf.sprintf "expected %C, found end of input" c);
  let c' = String.unsafe_get st.src st.pos in
  if c' = c then st.pos <- st.pos + 1
  else fail st (Printf.sprintf "expected %C, found %C" c c')

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= st.len && String.equal (String.sub st.src st.pos n) word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Four hex digits at [pos], which is where a bad digit is reported. *)
let read_hex4 st =
  if st.pos + 4 > st.len then fail st "truncated \\u escape";
  let value = ref 0 in
  for k = st.pos to st.pos + 3 do
    let d = hex_digit (String.unsafe_get st.src k) in
    if d < 0 then fail st "invalid \\u escape";
    value := (!value lsl 4) lor d
  done;
  st.pos <- st.pos + 4;
  !value

(* The code point of a \u escape whose hex digits start at [pos]. *)
let read_u_escape st =
  let code = read_hex4 st in
  if code >= 0xD800 && code <= 0xDBFF then begin
    (* High surrogate: must be followed by \uDC00-\uDFFF; the pair
       encodes one supplementary code point. *)
    if
      st.pos + 2 > st.len
      || st.src.[st.pos] <> '\\'
      || st.src.[st.pos + 1] <> 'u'
    then fail st "unpaired high surrogate in \\u escape";
    st.pos <- st.pos + 2;
    let low = read_hex4 st in
    if low < 0xDC00 || low > 0xDFFF then
      fail st "unpaired high surrogate in \\u escape";
    0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
  end
  else if code >= 0xDC00 && code <= 0xDFFF then
    fail st "unpaired low surrogate in \\u escape"
  else code

(* The end of the run of plain bytes (not '"', '\\' or a control
   character) starting at [i]. *)
let rec plain_run src len i =
  if i >= len then i
  else
    match String.unsafe_get src i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> plain_run src len (i + 1)

let parse_string st =
  expect st '"';
  let src = st.src and len = st.len in
  let start = st.pos in
  let stop = plain_run src len start in
  if stop < len && String.unsafe_get src stop = '"' then begin
    (* No escapes: the common case is one substring. *)
    st.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    (* Each step copies one plain run, then handles the byte after it. *)
    let rec go i =
      let stop = plain_run src len i in
      Buffer.add_substring buf src i (stop - i);
      st.pos <- stop;
      if stop >= len then fail st "unterminated string";
      match String.unsafe_get src stop with
      | '"' -> st.pos <- stop + 1
      | '\\' ->
          st.pos <- stop + 1;
          if st.pos >= len then fail st "unterminated escape";
          let c = String.unsafe_get src st.pos in
          st.pos <- st.pos + 1;
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (read_u_escape st))
          | c -> fail st (Printf.sprintf "invalid escape \\%C" c));
          go st.pos
      | _ -> fail st "control character in string"
    in
    go start;
    Buffer.contents buf
  end

let rec skip_digits st =
  if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | '0' .. '9' ->
        st.pos <- st.pos + 1;
        skip_digits st
    | _ -> ()

let next_is st c = st.pos < st.len && String.unsafe_get st.src st.pos = c

let digit_run st =
  let start = st.pos in
  skip_digits st;
  st.pos > start

(* The number is the longest run at [pos] of an optional '-', digits, an
   optional '.' and digits, and an optional 'e'/'E', sign and digits. It
   must match RFC 8259's grammar: an integer part without leading zeros,
   and at least one digit after '.' and in the exponent. A bare integer
   of at most 15 digits is below 2^53, so its [int] value converts to a
   float exactly; anything else is left to [float_of_string]. *)
let parse_number st =
  let start = st.pos in
  let neg = next_is st '-' in
  if neg then st.pos <- st.pos + 1;
  let digits = st.pos in
  skip_digits st;
  let n_digits = st.pos - digits in
  let int_ok =
    n_digits = 1 || (n_digits > 1 && String.unsafe_get st.src digits <> '0')
  in
  let fraction_or_exponent =
    next_is st '.' || next_is st 'e' || next_is st 'E'
  in
  if int_ok && n_digits <= 15 && not fraction_or_exponent then begin
    let n = ref 0 in
    for k = digits to st.pos - 1 do
      n := (!n * 10) + (Char.code (String.unsafe_get st.src k) - Char.code '0')
    done;
    let f = float_of_int !n in
    if neg then -.f else f
  end
  else begin
    let fraction_ok =
      (not (next_is st '.'))
      || begin
           st.pos <- st.pos + 1;
           digit_run st
         end
    in
    let exponent_ok =
      (not (next_is st 'e' || next_is st 'E'))
      || begin
           st.pos <- st.pos + 1;
           if next_is st '+' || next_is st '-' then st.pos <- st.pos + 1;
           digit_run st
         end
    in
    let text = String.sub st.src start (st.pos - start) in
    match float_of_string_opt text with
    | Some f when int_ok && fraction_ok && exponent_ok -> f
    | _ -> fail st (Printf.sprintf "invalid number %S" text)
  end

let rec parse_value st =
  skip_ws st;
  if st.pos >= st.len then fail st "unexpected end of input";
  match String.unsafe_get st.src st.pos with
  | '{' -> parse_object st
  | '[' -> parse_array st
  | '"' -> Str (parse_string st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '-' | '0' .. '9' -> Num (parse_number st)
  | c -> fail st (Printf.sprintf "unexpected character %C" c)

and parse_object st =
  st.pos <- st.pos + 1;
  skip_ws st;
  if next_is st '}' then begin
    st.pos <- st.pos + 1;
    Obj []
  end
  else begin
    let rec members acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      if next_is st ',' then begin
        st.pos <- st.pos + 1;
        members ((key, v) :: acc)
      end
      else if next_is st '}' then begin
        st.pos <- st.pos + 1;
        List.rev ((key, v) :: acc)
      end
      else fail st "expected ',' or '}' in object"
    in
    Obj (members [])
  end

and parse_array st =
  st.pos <- st.pos + 1;
  skip_ws st;
  if next_is st ']' then begin
    st.pos <- st.pos + 1;
    List []
  end
  else begin
    let rec elements acc =
      let v = parse_value st in
      skip_ws st;
      if next_is st ',' then begin
        st.pos <- st.pos + 1;
        elements (v :: acc)
      end
      else if next_is st ']' then begin
        st.pos <- st.pos + 1;
        List.rev (v :: acc)
      end
      else fail st "expected ',' or ']' in array"
    in
    List (elements [])
  end

let parse src =
  let st = { src; len = String.length src; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> st.len then fail st "trailing characters after JSON value";
    Ok v
  with Malformed msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ---- writer -------------------------------------------------------------- *)

(* The one escaping routine every JSON emitter in the tree goes through
   (reports, pass stats, traces): printable ASCII and UTF-8 bytes pass
   through, the two JSON metacharacters and the common controls use their
   short escapes, and remaining control characters use \u00XX. *)
let escape_string s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Integer-valued floats print as integers (counters stay "3", not "3.");
   other finite floats print with the fewest digits that round-trip. *)
let number_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json.to_string: non-finite number";
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_repr f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string s);
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf "\":";
            go v)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let num_int i = Num (float_of_int i)

let to_int = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Some (int_of_float f)
  | _ -> None
