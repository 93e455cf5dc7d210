(* Tag of an empty way. Line ids are addresses shifted right by
   [log2 line], so only address [min_int] with one-byte lines maps here. *)
let invalid = min_int

type t = {
  line_shift : int;  (** log2 line *)
  set_mask : int;  (** sets - 1 *)
  ways : int;
  tags : int array;  (** sets * ways, [invalid] = empty way *)
  stamps : int array;  (** last-use clock per way, 0 = never used *)
  mru : int array;  (** per set: the way (absolute index) used last *)
  mutable last_line : int;  (** line of the previous access *)
  mutable clock : int;
  mutable n_accesses : int;
  mutable n_misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create ~size ~line ~ways =
  if size <= 0 || line <= 0 || ways <= 0 then
    invalid_arg "Cache.create: size, line and ways must be positive";
  if size mod (line * ways) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of line * ways";
  let sets = size / (line * ways) in
  if not (is_pow2 line) then
    invalid_arg "Cache.create: line size must be a power of two";
  if not (is_pow2 sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    line_shift = log2 line;
    set_mask = sets - 1;
    ways;
    tags = Array.make (sets * ways) invalid;
    stamps = Array.make (sets * ways) 0;
    mru = Array.init sets (fun s -> s * ways);
    last_line = invalid;
    clock = 0;
    n_accesses = 0;
    n_misses = 0;
  }

(* Exact LRU with two shortcuts that leave every hit/miss outcome as the
   plain scan would have it:
   - last line: the previous access of this cache left its line resident
     with the largest stamp of all, so a repeat is a hit, and not ticking
     the clock keeps every stamp comparison unchanged;
   - MRU way: a line is stored at most once per set, so finding it in the
     set's last-used way is the hit the scan would find. *)
let access t addr =
  t.n_accesses <- t.n_accesses + 1;
  let line_id = addr asr t.line_shift in
  if line_id = t.last_line then true
  else begin
    t.last_line <- line_id;
    t.clock <- t.clock + 1;
    let set = line_id land t.set_mask in
    let m = t.mru.(set) in
    if t.tags.(m) = line_id then begin
      t.stamps.(m) <- t.clock;
      true
    end
    else begin
      (* One pass: stop at the line, else remember the first way with the
         strictly smallest stamp. *)
      let base = set * t.ways in
      let stop = base + t.ways in
      let w = ref base and victim = ref base and oldest = ref max_int in
      while !w < stop && t.tags.(!w) <> line_id do
        let s = t.stamps.(!w) in
        if s < !oldest then begin
          oldest := s;
          victim := !w
        end;
        incr w
      done;
      let hit = !w < stop in
      let way = if hit then !w else !victim in
      if not hit then begin
        t.n_misses <- t.n_misses + 1;
        t.tags.(way) <- line_id
      end;
      t.stamps.(way) <- t.clock;
      t.mru.(set) <- way;
      hit
    end
  end

let accesses t = t.n_accesses
let misses t = t.n_misses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) invalid;
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  Array.iteri (fun s _ -> t.mru.(s) <- s * t.ways) t.mru;
  t.last_line <- invalid;
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
