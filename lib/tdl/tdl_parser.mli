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
