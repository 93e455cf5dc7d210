(** Lexer and recursive-descent parser for TDL (grammar in Figure 4).

    Accepted forms:
    {v
    def GEMM {
      pattern = builder C(i,j) += A(i,k) * B(k,j)     // Listing 8
    }

    def TTGT {
      pattern
        C(a,b,c) += A(a,c,d) * B(d,b)
      builder
        D(f,b) = C(a,b,c) where f = a * c             // Listing 3
        E(f,d) = A(a,c,d) where f = a * c
        D(f,b) += E(f,d) * B(d,b)
        C(a,b,c) = D(f,b) where f = a * c
    }
    v}

    A [pattern] with no [builder] section auto-synthesizes the builders
    (classification + TTGT, see {!Frontend}). *)

val parse : ?file:string -> string -> Tdl_ast.tactic list

val parse_one : ?file:string -> string -> Tdl_ast.tactic

(** {2 Internals shared with the TDS parser} *)

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
  | Lt
  | Gt
  | Lbracket
  | Rbracket
  | Semi
  | Colon
  | Eof

type ltok = { tok : token; loc : Support.Loc.t }
type state = { mutable toks : ltok list }

val tokenize : file:string -> string -> ltok list
val token_to_string : token -> string
val peek : state -> ltok
val next : state -> ltok
val expect : state -> token -> unit
val expect_ident : state -> string
val parse_stmt_at : state -> Tdl_ast.stmt
