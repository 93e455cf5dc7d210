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
  builders : builder list;
  loc : Support.Loc.t;
}

let builder_inputs = function
  | Transpose { input; _ } | Reshape { input; _ } -> [ input ]
  | Matmul { in1; in2; _ } | Matvec { in1; in2; _ } | Conv2d { in1; in2; _ }
    ->
      [ in1; in2 ]

let builder_output = function
  | Transpose { output; _ }
  | Reshape { output; _ }
  | Matmul { output; _ }
  | Matvec { output; _ }
  | Conv2d { output; _ } ->
      output

let pp_names fmt names =
  Format.fprintf fmt "In<[%s]>" (String.concat ", " names)

let pp_builder fmt b =
  let out fmt name = Format.fprintf fmt "Out<[%s]>" name in
  match b with
  | Transpose { input; output; perm } ->
      Format.fprintf fmt "transposeBuilder<%a, %a, Expr<{%s}>>" pp_names
        [ input ] out output
        (String.concat ", " (List.map string_of_int perm))
  | Reshape { input; output; grouping } ->
      let group g =
        match g with
        | [ d ] -> string_of_int d
        | ds -> "{" ^ String.concat ", " (List.map string_of_int ds) ^ "}"
      in
      Format.fprintf fmt "reshapeBuilder<%a, %a, Expr<{%s}>>" pp_names
        [ input ] out output
        (String.concat ", " (List.map group grouping))
  | Matmul { in1; in2; output } ->
      Format.fprintf fmt "matmulBuilder<%a, %a>" pp_names [ in1; in2 ] out
        output
  | Matvec { in1; in2; output; transpose } ->
      Format.fprintf fmt "matvecBuilder<%a, %a, Trans<%d>>" pp_names
        [ in1; in2 ] out output
        (if transpose then 1 else 0)
  | Conv2d { in1; in2; output } ->
      Format.fprintf fmt "convBuilder<%a, %a>" pp_names [ in1; in2 ] out
        output

let pp fmt t =
  Format.fprintf fmt "def %s : Tactic<%s, Roots<[%s]>, [\n" t.name
    (Tdl_ast.stmt_to_string t.pattern)
    (String.concat ", " t.roots);
  List.iter (fun b -> Format.fprintf fmt "  %a,\n" pp_builder b) t.builders;
  Format.fprintf fmt "]>;\n"

let to_string t = Format.asprintf "%a" pp t
