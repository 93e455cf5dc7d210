type t = {
  line : int;
  sets : int;
  ways : int;
  tags : int array;  (** sets * ways, -1 = invalid *)
  stamps : int array;
  mutable clock : int;
  mutable n_accesses : int;
  mutable n_misses : int;
}

let create ~size ~line ~ways =
  if size mod (line * ways) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of line * ways";
  let sets = size / (line * ways) in
  {
    line;
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    clock = 0;
    n_accesses = 0;
    n_misses = 0;
  }

let access t addr =
  let line_id = addr / t.line in
  let set = line_id mod t.sets in
  let base = set * t.ways in
  t.clock <- t.clock + 1;
  t.n_accesses <- t.n_accesses + 1;
  let hit = ref false in
  let victim = ref base in
  let oldest = ref max_int in
  (try
     for w = base to base + t.ways - 1 do
       if t.tags.(w) = line_id then begin
         t.stamps.(w) <- t.clock;
         hit := true;
         raise Exit
       end;
       if t.stamps.(w) < !oldest then begin
         oldest := t.stamps.(w);
         victim := w
       end
     done
   with Exit -> ());
  if not !hit then begin
    t.n_misses <- t.n_misses + 1;
    t.tags.(!victim) <- line_id;
    t.stamps.(!victim) <- t.clock
  end;
  !hit

let accesses t = t.n_accesses
let misses t = t.n_misses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.n_accesses <- 0;
  t.n_misses <- 0

type hierarchy = { l1 : t; l2 : t; l3 : t }

let create_hierarchy ~l1 ~l2 ~l3 = { l1; l2; l3 }

let access_hierarchy h addr =
  if access h.l1 addr then 1
  else if access h.l2 addr then 2
  else if access h.l3 addr then 3
  else 4
