(** Tactics Description Specification (TDS, §III-B and Figure 5): the
    TableGen-stage representation between TDL and the generated matchers
    and builders. Each entry derives from the [Tactic] class and carries
    the pattern (in TC syntax) plus a list of builders.

    TableGen files are only containers of domain-specific information —
    this module provides the data type and its textual rendering
    (Listing 4). TDS is an output of the pipeline, never an input: the
    frontend emits it, the backend compiles the data type directly, and
    the text is printed ([mlt-opt --dump-tds]) but never read back. *)

type builder =
  | Transpose of { input : string; output : string; perm : int list }
  | Reshape of { input : string; output : string; grouping : int list list }
  | Matmul of { in1 : string; in2 : string; output : string }
  | Matvec of { in1 : string; in2 : string; output : string; transpose : bool }
  | Conv2d of { in1 : string; in2 : string; output : string }

type tactic = {
  name : string;
  pattern : Tdl_ast.stmt;
  roots : string list;
      (** Op names the generated matcher can fire at (rendered as a
          [Roots<[...]>] clause). *)
  builders : builder list;
  loc : Support.Loc.t;  (** position of the TDL [def] *)
}

(** Tensor names read by a builder step. *)
val builder_inputs : builder -> string list

(** Tensor name written by a builder step. *)
val builder_output : builder -> string

(** Render in the TableGen syntax of Listing 4. *)
val pp : Format.formatter -> tactic -> unit

val to_string : tactic -> string
