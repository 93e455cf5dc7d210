type point = At_end of Core.block | Before of Core.op | After of Core.op

type t = { mutable point : point }

let create point = { point }
let at_end block = { point = At_end block }
let before op = { point = Before op }

let insert t op =
  (match t.point with
  | At_end block -> Core.append_op block op
  | Before anchor -> Core.insert_before ~anchor op
  | After anchor ->
      Core.insert_after ~anchor op;
      t.point <- After op);
  op

let build t ?operands ?result_types ?attrs ?regions name =
  insert t (Core.create_op ?operands ?result_types ?attrs ?regions name)

let nested _t op i = at_end (Core.single_block op i)
