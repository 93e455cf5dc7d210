(* Tests for the support utilities and small IR helpers. *)

let test_loc () =
  let l = Support.Loc.make ~file:"x.c" ~line:3 ~col:7 in
  Alcotest.(check string) "render" "x.c:3:7" (Support.Loc.to_string l);
  Alcotest.(check string) "unknown" "<unknown>"
    (Support.Loc.to_string Support.Loc.unknown)

let test_diag () =
  (match Support.Diag.wrap (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "ok passes through" 42 v
  | Error _ -> Alcotest.fail "unexpected error");
  (match
     Support.Diag.wrap (fun () -> Support.Diag.errorf "bad %s %d" "thing" 7)
   with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg -> Alcotest.(check string) "formatted" "bad thing 7" msg);
  let loc = Support.Loc.make ~file:"f.tdl" ~line:1 ~col:2 in
  match Support.Diag.wrap (fun () -> Support.Diag.error ~loc "oops") with
  | Error msg -> Alcotest.(check string) "located" "f.tdl:1:2: oops" msg
  | Ok _ -> Alcotest.fail "expected error"

let test_id_gen () =
  let g = Support.Id_gen.create () in
  let a = Support.Id_gen.next g in
  let b = Support.Id_gen.next g in
  let c = Support.Id_gen.next g in
  Alcotest.(check (list int)) "monotonic" [ 0; 1; 2 ] [ a; b; c ]

let test_typ_helpers () =
  let t = Ir.Typ.memref [ 2; 3; 4 ] Ir.Typ.F32 in
  Alcotest.(check int) "rank" 3 (Ir.Typ.memref_rank t);
  Alcotest.(check (option (list int))) "shape" (Some [ 2; 3; 4 ])
    (Ir.Typ.static_shape t);
  Alcotest.(check (option int)) "elements" (Some 24) (Ir.Typ.num_elements t);
  Alcotest.(check string) "render" "memref<2x3x4xf32>" (Ir.Typ.to_string t);
  let dyn = Ir.Typ.Mem_ref ([ Ir.Typ.Dynamic; Ir.Typ.Static 4 ], Ir.Typ.F32) in
  Alcotest.(check (option (list int))) "dynamic shape" None
    (Ir.Typ.static_shape dyn);
  Alcotest.(check string) "dynamic render" "memref<?x4xf32>"
    (Ir.Typ.to_string dyn);
  Alcotest.(check bool) "scalar" true (Ir.Typ.is_scalar Ir.Typ.Index);
  Alcotest.(check bool) "not scalar" false (Ir.Typ.is_scalar t)

let test_attr_accessors () =
  Alcotest.(check int) "int" 5 (Ir.Attr.get_int (Ir.Attr.Int 5));
  Alcotest.(check (list int)) "ints" [ 1; 2 ]
    (Ir.Attr.get_ints (Ir.Attr.Ints [ 1; 2 ]));
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Attr: expected int, got \"x\"") (fun () ->
      ignore (Ir.Attr.get_int (Ir.Attr.Str "x")));
  let g = Ir.Attr.Grouping [ [ 0; 1 ]; [ 2 ] ] in
  Alcotest.(check string) "grouping render" "{{0, 1}, 2}" (Ir.Attr.to_string g);
  Alcotest.(check bool) "equal" true
    (Ir.Attr.equal g (Ir.Attr.Grouping [ [ 0; 1 ]; [ 2 ] ]));
  Alcotest.(check bool) "not equal" false (Ir.Attr.equal g (Ir.Attr.Int 3))

let test_contraction_spec_errors () =
  let expect_fail s =
    match Support.Diag.wrap (fun () -> Workloads.Contraction_spec.parse s) with
    | Ok _ -> Alcotest.failf "expected rejection of %S" s
    | Error _ -> ()
  in
  expect_fail "ab-cd";
  expect_fail "aab-ab-b";
  expect_fail "abz-ab-b";
  expect_fail "ab--b";
  let t = Workloads.Contraction_spec.parse "abc-acd-db" in
  Alcotest.(check (list char)) "contracted" [ 'd' ]
    (Workloads.Contraction_spec.contracted t);
  Alcotest.(check (list char)) "free1" [ 'a'; 'c' ]
    (Workloads.Contraction_spec.free1 t);
  Alcotest.(check (list char)) "free2" [ 'b' ]
    (Workloads.Contraction_spec.free2 t);
  Alcotest.(check string) "roundtrip" "abc-acd-db"
    (Workloads.Contraction_spec.to_string t);
  Alcotest.(check (float 0.)) "flops"
    (2. *. 3. *. 4. *. 5. *. 6.)
    (Workloads.Contraction_spec.flops t
       ~sizes:[ ('a', 3); ('b', 4); ('c', 5); ('d', 6) ])

(* ---- JSON reader: \uXXXX escapes decode to UTF-8 ------------------ *)

module J = Support.Json

let json =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (J.to_string v))
    ( = )

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let expect_reject s =
  match J.parse s with
  | Ok _ -> Alcotest.failf "expected %S to be rejected" s
  | Error _ -> ()

let test_json_unicode_escapes () =
  (* One escape from each UTF-8 width class, byte-exact. The old reader
     truncated every code point to its low byte. *)
  Alcotest.check json "1-byte (A)" (J.Str "A") (parse_ok {|"\u0041"|});
  Alcotest.check json "2-byte (e-acute)" (J.Str "\xc3\xa9")
    (parse_ok {|"\u00e9"|});
  Alcotest.check json "3-byte (euro sign)" (J.Str "\xe2\x82\xac")
    (parse_ok {|"\u20ac"|});
  Alcotest.check json "uppercase hex accepted" (J.Str "\xe2\x82\xac")
    (parse_ok {|"\u20AC"|});
  Alcotest.check json "4-byte via surrogate pair"
    (J.Str "\xf0\x9f\x98\x80")
    (parse_ok {|"\ud83d\ude00"|});
  Alcotest.check json "escapes concatenate" (J.Str "A\xc3\xa9B")
    (parse_ok {|"\u0041\u00e9\u0042"|});
  expect_reject {|"\ud83d"|};       (* unpaired high surrogate *)
  expect_reject {|"\ude00"|};       (* unpaired low surrogate *)
  expect_reject {|"\ud83dx"|};      (* high surrogate, then raw text *)
  expect_reject {|"\ud83d\u0041"|}; (* high surrogate, then non-low *)
  expect_reject {|"\u12g4"|};       (* bad hex digit *)
  expect_reject {|"\u1_23"|};       (* int_of_string would take "0x1_23" *)
  expect_reject {|"\u004"|}         (* truncated escape *)

let test_json_writer_roundtrip () =
  let v =
    J.Obj
      [
        ("name", J.Str "a\"b\\c\n\t\xe2\x82\xac");
        ("n", J.num_int 42);
        ("xs", J.List [ J.Null; J.Bool true; J.Num 0.5 ]);
        ("empty", J.Obj []);
      ]
  in
  Alcotest.check json "round-trip" v (parse_ok (J.to_string v));
  Alcotest.(check string) "integers render without a decimal point"
    {|{"a":2,"b":-7}|}
    (J.to_string (J.Obj [ ("a", J.Num 2.); ("b", J.num_int (-7)) ]));
  Alcotest.(check string) "fraction" "0.5" (J.to_string (J.Num 0.5));
  (* Sub-microsecond timings exercise the shortest-round-trip path. *)
  let f = 1.8835067749023438e-05 in
  (match parse_ok (J.to_string (J.Num f)) with
  | J.Num g -> Alcotest.(check (float 0.)) "float exact through text" f g
  | _ -> Alcotest.fail "expected a number");
  Alcotest.check_raises "non-finite rejected"
    (Invalid_argument "Json.to_string: non-finite number") (fun () ->
      ignore (J.to_string (J.Num Float.nan)));
  Alcotest.(check string) "control characters escaped" ("\\u0001" ^ "\\n")
    (J.escape_string "\x01\n");
  Alcotest.(check (option int)) "to_int on integral" (Some 42)
    (J.to_int (J.num_int 42));
  Alcotest.(check (option int)) "to_int on fraction" None
    (J.to_int (J.Num 0.5))

(* ---- JSON reader: pinned corpus and round-trip property ----------- *)

(* Every outcome below was recorded from the per-byte reader the
   index-based one replaced: accept or reject, the exact error text with
   its byte offset, and each number's bits (n<Int64.bits_of_float>).
   Numbers outside RFC 8259's grammar (a leading zero, a '.' or exponent
   without digits) that reader accepted are pinned as rejected. *)
let rec describe = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Num f -> Printf.sprintf "n%Lx" (Int64.bits_of_float f)
  | J.Str s -> Printf.sprintf "%S" s
  | J.List l -> "[" ^ String.concat "," (List.map describe l) ^ "]"
  | J.Obj kv ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (describe v)) kv)
      ^ "}"

let json_corpus =
  [
    ("-0", "ok n8000000000000000");
    ("0", "ok n0");
    ("-0.0", "ok n8000000000000000");
    ("0.0", "ok n0");
    ("0e0", "ok n0");
    ("007", "error at byte 3: invalid number \"007\"");
    ("-007", "error at byte 4: invalid number \"-007\"");
    ("01", "error at byte 2: invalid number \"01\"");
    ("1.", "error at byte 2: invalid number \"1.\"");
    ("-", "error at byte 1: invalid number \"-\"");
    ("-a", "error at byte 1: invalid number \"-\"");
    (".5", "error at byte 0: unexpected character '.'");
    ("-.5", "error at byte 3: invalid number \"-.5\"");
    ("+1", "error at byte 0: unexpected character '+'");
    ("--1", "error at byte 1: invalid number \"-\"");
    ("1e", "error at byte 2: invalid number \"1e\"");
    ("1e+", "error at byte 3: invalid number \"1e+\"");
    ("1E+2", "ok n4059000000000000");
    ("1e-2", "ok n3f847ae147ae147b");
    ("1.e5", "error at byte 4: invalid number \"1.e5\"");
    ("1.5e-3", "ok n3f589374bc6a7efa");
    ("123.456e+7", "ok n41d2657900000000");
    ("1e400", "ok n7ff0000000000000");
    ("-1e400", "ok nfff0000000000000");
    ("1e-400", "ok n0");
    ("5e-324", "ok n1");
    ("1.7976931348623157e308", "ok n7fefffffffffffff");
    ("0.1", "ok n3fb999999999999a");
    ("1.2.3", "error at byte 3: trailing characters after JSON value");
    ("1e5.5", "error at byte 3: trailing characters after JSON value");
    ("1ee", "error at byte 2: invalid number \"1e\"");
    ("1_000", "error at byte 1: trailing characters after JSON value");
    ("0x10", "error at byte 1: trailing characters after JSON value");
    ("1x", "error at byte 1: trailing characters after JSON value");
    ("123456789012345", "ok n42dc12218377de40");
    ("-123456789012345", "ok nc2dc12218377de40");
    ("999999999999999", "ok n430c6bf52633fff8");
    ("-999999999999999", "ok nc30c6bf52633fff8");
    ("000000000000001", "error at byte 15: invalid number \"000000000000001\"");
    ("1000000000000000", "ok n430c6bf526340000");
    ("9007199254740992", "ok n4340000000000000");
    ("9007199254740993", "ok n4340000000000000");
    ("-9007199254740993", "ok nc340000000000000");
    ("12345678901234567", "ok n4345ee2a2eb5a5c4");
    ("99999999999999999", "ok n4376345785d8a000");
    ("4611686018427387903", "ok n43d0000000000000");
    ("4611686018427387904", "ok n43d0000000000000");
    ("18446744073709551616", "ok n43f0000000000000");
    ("true", "ok true");
    ("false", "ok false");
    ("null", "ok null");
    ("tru", "error at byte 0: expected true");
    ("nul", "error at byte 0: expected null");
    ("falsey", "error at byte 5: trailing characters after JSON value");
    ("nan", "error at byte 0: expected null");
    ("Infinity", "error at byte 0: unexpected character 'I'");
    ("True", "error at byte 0: unexpected character 'T'");
    ("\"\"", "ok \"\"");
    ("\"abc\"", "ok \"abc\"");
    ("\"\\\"\"", "ok \"\\\"\"");
    ("\"\\\\\"", "ok \"\\\\\"");
    ("\"\\/\"", "ok \"/\"");
    ("\"\\b\"", "ok \"\\b\"");
    ("\"\\f\"", "ok \"\\012\"");
    ("\"\\n\"", "ok \"\\n\"");
    ("\"\\r\"", "ok \"\\r\"");
    ("\"\\t\"", "ok \"\\t\"");
    ("\"a\\\"b\\\\c\\/d\\be\\ff\\ng\\rh\\ti\"", "ok \"a\\\"b\\\\c/d\\be\\012f\\ng\\rh\\ti\"");
    ("\"\\u0000\"", "ok \"\\000\"");
    ("\"\\u001f\"", "ok \"\\031\"");
    ("\"\\u0041\"", "ok \"A\"");
    ("\"\\u00e9\"", "ok \"\\195\\169\"");
    ("\"\\u20AC\"", "ok \"\\226\\130\\172\"");
    ("\"\\uffff\"", "ok \"\\239\\191\\191\"");
    ("\"\\x\"", "error at byte 3: invalid escape \\'x'");
    ("\"\\a\"", "error at byte 3: invalid escape \\'a'");
    ("\"\\U0041\"", "error at byte 3: invalid escape \\'U'");
    ("\"\\uD800\"", "error at byte 7: unpaired high surrogate in \\u escape");
    ("\"\\uDBFF\"", "error at byte 7: unpaired high surrogate in \\u escape");
    ("\"\\uDC00\"", "error at byte 7: unpaired low surrogate in \\u escape");
    ("\"\\uDFFF\"", "error at byte 7: unpaired low surrogate in \\u escape");
    ("\"\\ud83d\\ude00\"", "ok \"\\240\\159\\152\\128\"");
    ("\"\\uDBFF\\uDFFF\"", "ok \"\\244\\143\\191\\191\"");
    ("\"\\uD800\\uDC00\"", "ok \"\\240\\144\\128\\128\"");
    ("\"\\ud83dx\"", "error at byte 7: unpaired high surrogate in \\u escape");
    ("\"\\ud83d\\u0041\"", "error at byte 13: unpaired high surrogate in \\u escape");
    ("\"\\ud83d\\ud83d\"", "error at byte 13: unpaired high surrogate in \\u escape");
    ("\"\\ud83d\\\"", "error at byte 7: unpaired high surrogate in \\u escape");
    ("\"\\ud83d\\u\"", "error at byte 9: truncated \\u escape");
    ("\"\\ud83d\\ude\"", "error at byte 9: truncated \\u escape");
    ("\"\\ud83d\\udez0\"", "error at byte 9: invalid \\u escape");
    ("\"\\ud83d\\n\"", "error at byte 7: unpaired high surrogate in \\u escape");
    ("\"\\u12\"", "error at byte 3: truncated \\u escape");
    ("\"\\u\"", "error at byte 3: truncated \\u escape");
    ("\"\\u12g4\"", "error at byte 3: invalid \\u escape");
    ("\"\\u1_23\"", "error at byte 3: invalid \\u escape");
    ("\"\\u 123\"", "error at byte 3: invalid \\u escape");
    ("\"\195\169\"", "ok \"\\195\\169\"");
    ("\"\226\130\172\240\159\152\128\"", "ok \"\\226\\130\\172\\240\\159\\152\\128\"");
    ("\"\255\254\128\"", "ok \"\\255\\254\\128\"");
    ("\"\127\"", "ok \"\\127\"");
    ("\"a\001b\"", "error at byte 2: control character in string");
    ("\"\031\"", "error at byte 1: control character in string");
    ("\"\n\"", "error at byte 1: control character in string");
    ("\"\t\"", "error at byte 1: control character in string");
    ("\"\000\"", "error at byte 1: control character in string");
    ("\"abc", "error at byte 4: unterminated string");
    ("\"ab\\", "error at byte 4: unterminated escape");
    ("\"", "error at byte 1: unterminated string");
    ("\"\\u00", "error at byte 3: truncated \\u escape");
    ("\"\\u00e9", "error at byte 7: unterminated string");
    ("", "error at byte 0: unexpected end of input");
    (" ", "error at byte 1: unexpected end of input");
    (" \t\r\n ", "error at byte 5: unexpected end of input");
    ("1 2", "error at byte 2: trailing characters after JSON value");
    ("\"a\" \"b\"", "error at byte 4: trailing characters after JSON value");
    ("{}x", "error at byte 2: trailing characters after JSON value");
    ("[] ]", "error at byte 3: trailing characters after JSON value");
    ("null,", "error at byte 4: trailing characters after JSON value");
    (" 42 ", "ok n4045000000000000");
    ("\t42\n", "ok n4045000000000000");
    ("{}", "ok {}");
    ("[]", "ok []");
    ("{ }", "ok {}");
    ("[ \t\r\n]", "ok []");
    ("[[[[]]]]", "ok [[[[]]]]");
    ("{\"a\":{\"b\":{}}}", "ok {\"a\":{\"b\":{}}}");
    (" { \"a\" : [ { } , [ ] , null ] ,\n\t\"b\"\r:\ttrue } ", "ok {\"a\":[{},[],null],\"b\":true}");
    ("[1,2,3]", "ok [n3ff0000000000000,n4000000000000000,n4008000000000000]");
    ("[ 1 , -0 , 1e2 , \"x\" ]", "ok [n3ff0000000000000,n8000000000000000,n4059000000000000,\"x\"]");
    ("[1,]", "error at byte 3: unexpected character ']'");
    ("[,1]", "error at byte 1: unexpected character ','");
    ("[1 2]", "error at byte 3: expected ',' or ']' in array");
    ("[1", "error at byte 2: expected ',' or ']' in array");
    ("[", "error at byte 1: unexpected end of input");
    ("{\"a\":1,}", "error at byte 7: expected '\"', found '}'");
    ("{1:2}", "error at byte 1: expected '\"', found '1'");
    ("{\"a\" 1}", "error at byte 5: expected ':', found '1'");
    ("{\"a\":1 \"b\":2}", "error at byte 7: expected ',' or '}' in object");
    ("{\"a\"", "error at byte 4: expected ':', found end of input");
    ("{\"a\":", "error at byte 5: unexpected end of input");
    ("{", "error at byte 1: expected '\"', found end of input");
    ("{\"a\":1", "error at byte 6: expected ',' or '}' in object");
    ("{\"a\":1,\"a\":2}", "ok {\"a\":n3ff0000000000000,\"a\":n4000000000000000}");
    ("{\"\":[]}", "ok {\"\":[]}");
    ("[{},{\"k\":[null,false]}]", "ok [{},{\"k\":[null,false]}]");
    ("}", "error at byte 0: unexpected character '}'");
    ("]", "error at byte 0: unexpected character ']'");
    (":", "error at byte 0: unexpected character ':'");
    (",", "error at byte 0: unexpected character ','");
  ]

let test_json_corpus () =
  List.iter
    (fun (src, expected) ->
      let got =
        match J.parse src with
        | Ok v -> "ok " ^ describe v
        | Error e -> "error " ^ e
      in
      Alcotest.(check string) (Printf.sprintf "parse %S" src) expected got)
    json_corpus

(* Values whose strings draw from all 256 byte values (one in eight is
   exactly the 256 bytes in order) and whose numbers mix signed zeros,
   integers on both sides of the 15-digit boundary, and arbitrary finite
   bit patterns. *)
let gen_json =
  let open QCheck.Gen in
  let all_bytes = String.init 256 Char.chr in
  let str =
    frequency
      [ (7, string_size ~gen:char (int_bound 24)); (1, return all_bytes) ]
  in
  let finite =
    map
      (fun bits ->
        let f = Int64.float_of_bits bits in
        if Float.is_finite f then f else 0.5)
      ui64
  in
  let num =
    frequency
      [
        (1, oneofl [ 0.; -0.; 1e15; -1e15; 999999999999999.; 9007199254740993. ]);
        (3, map float_of_int (int_range (-1_000_000_000_000_000) 1_000_000_000_000_000));
        (1, map float_of_int small_signed_int);
        (3, finite);
      ]
  in
  sized
    (fix (fun self n ->
         let leaf =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun f -> J.Num f) num;
               map (fun s -> J.Str s) str;
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> J.Obj l)
                   (list_size (int_bound 4) (pair str (self (n / 4)))) );
             ]))

let rec json_bits_equal a b =
  match (a, b) with
  | J.Num x, J.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.List xs, J.List ys ->
      List.length xs = List.length ys && List.for_all2 json_bits_equal xs ys
  | J.Obj xs, J.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k, x) (k', y) -> String.equal k k' && json_bits_equal x y)
           xs ys
  | _ -> a = b

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json parse (to_string v) = Ok v, bit for bit"
    ~count:500
    (QCheck.make ~print:describe gen_json)
    (fun v ->
      match J.parse (J.to_string v) with
      | Ok v' -> json_bits_equal v v'
      | Error e -> QCheck.Test.fail_reportf "rejected: %s" e)

(* ---- Atomic_io: no code path leaves a torn file ------------------- *)

let rec rm_rf path =
  if try Sys.is_directory path with Sys_error _ -> false then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    try Sys.rmdir path with Sys_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let with_tmp_dir f =
  let dir = Filename.temp_dir "mlt_support_test" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_atomic_write () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "out.txt" in
  Support.Atomic_io.write_file ~path "first\n";
  Alcotest.(check string) "written" "first\n" (read_file path);
  Support.Atomic_io.write_file ~path "second\n";
  Alcotest.(check string) "overwritten" "second\n" (read_file path);
  (* A writer that raises mid-way must leave the previous content
     intact and no temp debris behind. *)
  (try
     Support.Atomic_io.with_file ~path (fun oc ->
         Out_channel.output_string oc "torn";
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "old content preserved on raise" "second\n"
    (read_file path);
  Alcotest.(check (list string)) "no temp debris" [ "out.txt" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  Support.Atomic_io.append_line ~path "line1";
  Support.Atomic_io.append_line ~path "line2";
  Alcotest.(check string) "append_line appends with newline"
    "second\nline1\nline2\n" (read_file path)

let test_mkdir_p () =
  with_tmp_dir @@ fun dir ->
  let nested = Filename.concat (Filename.concat dir "a") "b" in
  Support.Atomic_io.mkdir_p nested;
  Alcotest.(check bool) "nested created" true (Sys.is_directory nested);
  Support.Atomic_io.mkdir_p nested;
  (* A regular file on the path is a precise error, not a silent
     success (the old batch mkdir_p only checked Sys.file_exists). *)
  let file = Filename.concat dir "plain" in
  Support.Atomic_io.write_file ~path:file "x";
  (match
     Support.Atomic_io.mkdir_p (Filename.concat file "child")
   with
  | () -> Alcotest.fail "expected mkdir_p through a file to fail"
  | exception Support.Diag.Error (_, msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the offender: %s" msg)
        true
        (String.length msg > 0
        && String.ends_with ~suffix:"exists and is not a directory" msg));
  match Support.Atomic_io.mkdir_p file with
  | () -> Alcotest.fail "expected mkdir_p of a file to fail"
  | exception Support.Diag.Error _ -> ()

(* A first [Once.get] raced from several fresh domains: the slow
   initializer (~10 ms of spinning) keeps the race window wide open, so
   every domain arrives while the winner is still computing. All must
   get the physically same value, and the initializer must run once.
   (A Stdlib [lazy] raises [CamlinternalLazy.Undefined] here.) *)
let test_once_contended () =
  let n = 4 in
  let runs = Atomic.make 0 in
  let cell =
    Support.Once.make (fun () ->
        Atomic.incr runs;
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < 0.010 do
          Domain.cpu_relax ()
        done;
        ref 42)
  in
  let arrived = Atomic.make 0 in
  let force () =
    Atomic.incr arrived;
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done;
    Support.Once.get cell
  in
  let domains = List.init n (fun _ -> Domain.spawn force) in
  let values = List.map Domain.join domains in
  let first = List.hd values in
  Alcotest.(check bool) "every domain got the same value" true
    (List.for_all (fun v -> v == first) values);
  Alcotest.(check bool) "and the main domain too" true
    (Support.Once.get cell == first);
  Alcotest.(check int) "the initializer ran exactly once" 1 (Atomic.get runs);
  Alcotest.(check int) "with the value it built" 42 !first

(* An initializer that raises publishes nothing: the exception reaches
   the caller and the next [get] runs the initializer again. *)
let test_once_retries_after_failure () =
  let attempts = ref 0 in
  let cell =
    Support.Once.make (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "first attempt" else !attempts)
  in
  (match Support.Once.get cell with
  | _ -> Alcotest.fail "expected the first initializer to raise"
  | exception Failure _ -> ());
  Alcotest.(check int) "second get runs it again" 2 (Support.Once.get cell);
  Alcotest.(check int) "then the value sticks" 2 (Support.Once.get cell);
  Alcotest.(check int) "two initializer runs in all" 2 !attempts

let suite =
  [
    Alcotest.test_case "locations" `Quick test_loc;
    Alcotest.test_case "diagnostics" `Quick test_diag;
    Alcotest.test_case "id generation" `Quick test_id_gen;
    Alcotest.test_case "type helpers" `Quick test_typ_helpers;
    Alcotest.test_case "attribute accessors" `Quick test_attr_accessors;
    Alcotest.test_case "contraction specs" `Quick test_contraction_spec_errors;
    Alcotest.test_case "json \\u escapes decode to UTF-8" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "json writer round-trips" `Quick
      test_json_writer_roundtrip;
    Alcotest.test_case "json reader corpus pinned" `Quick test_json_corpus;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "atomic writes never tear" `Quick test_atomic_write;
    Alcotest.test_case "mkdir_p rejects files on the path" `Quick
      test_mkdir_p;
    Alcotest.test_case "once cell forced from racing domains" `Quick
      test_once_contended;
    Alcotest.test_case "once cell retries a failed initializer" `Quick
      test_once_retries_after_failure;
  ]
