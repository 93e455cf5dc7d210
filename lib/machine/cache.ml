(* Tag of an empty way. Line ids are addresses shifted right by
   [log2 line], so only address [min_int] with one-byte lines maps here. *)
let invalid = min_int

type t = {
  line_shift : int;  (** log2 line *)
  set_mask : int;  (** sets - 1 *)
  ways : int;
  tags : int array;
      (** sets * ways; each set in recency order, the most recently used
          line first and empty ways ([invalid]) last *)
  mutable n_accesses : int;
  mutable n_misses : int;
  mutable n_skipped : int;  (** accesses counted in [n_accesses], not probed *)
  mutable n_replayed : int;  (** of [n_skipped], counted by [replay] *)
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
    n_accesses = 0;
    n_misses = 0;
    n_skipped = 0;
    n_replayed = 0;
  }

(* Exact LRU. A hit in the set's first way (its most recently used line)
   leaves the set in order and writes nothing. [scan] is everything
   else: one pass that writes the line into the first way and moves each
   following tag back one way, until it reaches the line's old way (a
   hit) or pushes the last way's tag out (a miss: the least recently
   used line, or an empty way, is evicted). [carry] is the tag that
   belongs in way [w]. *)
let rec shift (tags : int array) (line_id : int) stop w carry =
  w < stop
  &&
  let old = tags.(w) in
  tags.(w) <- carry;
  old = line_id || shift tags line_id stop (w + 1) old

let scan t line_id set =
  let hit = shift t.tags line_id ((set + 1) * t.ways) (set * t.ways) line_id in
  if not hit then t.n_misses <- t.n_misses + 1;
  hit

let access t addr =
  t.n_accesses <- t.n_accesses + 1;
  let line_id = addr asr t.line_shift in
  let set = line_id land t.set_mask in
  t.tags.(set * t.ways) = line_id || scan t line_id set

let accesses t = t.n_accesses
let misses t = t.n_misses
let probes t = t.n_accesses - t.n_skipped
let replayed t = t.n_replayed
let line t = 1 lsl t.line_shift

(* A hit only reorders a set's tags, so a cache that never missed since
   [create] or the last reset still holds only empty ways. *)
let reset t =
  if t.n_misses > 0 then Array.fill t.tags 0 (Array.length t.tags) invalid;
  t.n_accesses <- 0;
  t.n_misses <- 0;
  t.n_skipped <- 0;
  t.n_replayed <- 0

type hierarchy = {
  l1 : t;
  l2 : t;
  l3 : t;
  separable : bool;
      (** L2 and L3 have L1's line and a multiple of its set count *)
}

(* Set counts are powers of two, so L1's divides an outer level's when
   it is no larger. *)
let create_hierarchy ~l1 ~l2 ~l3 =
  if l2.line_shift < l1.line_shift || l3.line_shift < l1.line_shift then
    invalid_arg "Cache.create_hierarchy: an outer line is smaller than L1's";
  let splits t = t.line_shift = l1.line_shift && t.set_mask >= l1.set_mask in
  { l1; l2; l3; separable = splits l2 && splits l3 }

let l1 h = h.l1
let separable h = h.separable

let reset_hierarchy h =
  reset h.l1;
  reset h.l2;
  reset h.l3

let access_hierarchy h addr =
  if access h.l1 addr then 1
  else if access h.l2 addr then 2
  else if access h.l3 addr then 3
  else 4

(* The level (2-4) that serves an L1 miss. *)
let outer_level h addr =
  if access h.l2 addr then 2 else if access h.l3 addr then 3 else 4

(* An entry's L1 misses in probe order, two ints each: the access's
   position in the entry ([iteration * sites + site]), then its cost
   index ([3 * site + level - 2]) shifted left by 2 over [level - 2],
   for the level (2-4) that served it. *)
type outcome = { mutable log : int array; mutable len : int }

let outcome () = { log = [||]; len = 0 }
let clear o = o.len <- 0
let outcome_misses o = o.len / 2

let same_outcome a b =
  a.len = b.len
  &&
  let same = ref true and i = ref 0 in
  while !same && !i < a.len do
    same := a.log.(!i) = b.log.(!i);
    incr i
  done;
  !same

let push o pos served =
  if o.len + 2 > Array.length o.log then begin
    let log = Array.make (max 64 (2 * Array.length o.log)) 0 in
    Array.blit o.log 0 log 0 o.len;
    o.log <- log
  end;
  o.log.(o.len) <- pos;
  o.log.(o.len + 1) <- served;
  o.len <- o.len + 2

let append dst ~at src =
  let i = ref 0 in
  while !i < src.len do
    push dst (at + src.log.(!i)) src.log.(!i + 1);
    i := !i + 2
  done

(* Serves an L1 miss of site [s] at [addr] from the outer levels, logs it
   at position [pos] when recording, and returns its cost index. *)
let miss h record s addr pos =
  let level = outer_level h addr in
  let ci = (3 * s) + level - 2 in
  (match record with
  | None -> ()
  | Some o -> push o pos ((ci lsl 2) lor (level - 2)));
  ci

(* A walk's sites, split for {!run_strided}. A site moving less than an
   L1 line per iteration is a stayer, up to L1's ways of them in body
   order; every other site is a mover. *)
type plan = {
  deltas : int array;
  rank : int array;  (** per site: its index in [movers], or -1 *)
  movers : int array;  (** mover sites in body order *)
  stayer_sites : int array;  (** stayer sites in body order *)
  stayers : int;
  crossing : bool;  (** some stayer moves at all *)
  one_set : bool;  (** see {!one_set_movers} *)
  marks : int array;  (** per L1 set: the last window a stayer used it in *)
  mutable window : int;
  stayer_log : outcome;  (** {!replay_movers}' stayer misses *)
}

(* A delta that is a multiple of L1's set span (line times sets, a power
   of two) keeps its site's line in one set. *)
let plan h ~deltas =
  let l1 = h.l1 in
  let line = 1 lsl l1.line_shift in
  let span = line * (l1.set_mask + 1) in
  let stayers = ref 0 and movers = ref 0 and crossing = ref false in
  let rank =
    Array.map
      (fun d ->
        if abs d < line && !stayers < l1.ways then begin
          incr stayers;
          if d <> 0 then crossing := true;
          -1
        end
        else begin
          incr movers;
          !movers - 1
        end)
      deltas
  in
  let movers = Array.make !movers 0 in
  Array.iteri (fun s r -> if r >= 0 then movers.(r) <- s) rank;
  {
    deltas = Array.copy deltas;
    rank;
    movers;
    stayer_sites =
      Array.of_list
        (List.filter (fun s -> rank.(s) < 0) (List.init (Array.length rank) Fun.id));
    stayers = !stayers;
    crossing = !crossing;
    one_set =
      h.separable && !stayers > 0
      && Array.length movers > 0
      && Array.for_all (fun s -> deltas.(s) land (span - 1) = 0) movers;
    marks = Array.make (l1.set_mask + 1) 0;
    window = 0;
    stayer_log = outcome ();
  }

let is_mover p s = p.rank.(s) >= 0
let one_set_movers p = p.one_set

(* The L1 first-way test is inlined; everything past it is [scan] and the
   outer levels' [access], exactly as [access_hierarchy] would run them,
   so each probe has the outcome and the state change it would have had
   in program order.

   The walk goes by windows (see the interface). A window's first
   iteration probes every site in body order, marks the sets its stayers
   use with the window's number, and shortens the window to the
   iterations every stayer stays in its line: a stayer at line offset
   [off] moving [d > 0] bytes stays [(line - 1 - off) / d] more
   iterations, one moving [d < 0] stays [off / -d] more. A mover that
   lands in a marked set in that iteration comes after a stayer of its
   set: the window is one iteration. The later iterations probe the
   movers only. A mover about to land in a marked set ends the window:
   its iteration becomes the next window's first, whose body-order pass
   skips the movers already probed ([from]): their sets hold no stayer
   line, so probing them first changes no set's sequence. *)
let run_strided ?record h p ~n ~addrs ~costs mem_cycles =
  let l1 = h.l1 in
  let shift = l1.line_shift and mask = l1.set_mask in
  let tags = l1.tags and ways = l1.ways in
  let deltas = p.deltas and rank = p.rank and movers = p.movers in
  let marks = p.marks in
  let sites = Array.length deltas and n_movers = Array.length movers in
  let line = 1 lsl shift in
  let mem = ref mem_cycles in
  let i = ref 0 and from = ref 0 in
  while !i < n do
    p.window <- p.window + 1;
    let window = p.window in
    (* [k]: the window's length, at most the iterations left. *)
    let k = ref (n - !i) in
    for s = 0 to sites - 1 do
      let r = rank.(s) in
      if r < 0 || r >= !from then begin
        let a = addrs.(s) in
        let d = deltas.(s) in
        addrs.(s) <- a + d;
        let line_id = a asr shift in
        let set = line_id land mask in
        if r < 0 then begin
          marks.(set) <- window;
          if d <> 0 then begin
            let stay =
              if d > 0 then (line - 1 - (a land (line - 1))) / d
              else (a land (line - 1)) / -d
            in
            if stay < !k - 1 then k := stay + 1
          end
        end
        else if marks.(set) = window then k := 1;
        if tags.(set * ways) <> line_id && not (scan l1 line_id set) then
          mem := !mem +. costs.(miss h record s a ((!i * sites) + s))
      end
    done;
    from := 0;
    if n_movers > 0 then begin
      let j = ref 1 in
      while !j < !k do
        let base = (!i + !j) * sites in
        let c = ref 0 in
        while !c < n_movers do
          let s = movers.(!c) in
          let a = addrs.(s) in
          let line_id = a asr shift in
          let set = line_id land mask in
          if marks.(set) = window then begin
            from := !c;
            k := !j;
            c := n_movers
          end
          else begin
            addrs.(s) <- a + deltas.(s);
            if tags.(set * ways) <> line_id && not (scan l1 line_id set) then
              mem := !mem +. costs.(miss h record s a (base + s));
            incr c
          end
        done;
        (* A mover that landed in a marked set made [k] [j]. *)
        if !j < !k then incr j
      done
    end;
    if !k > 1 then begin
      if p.crossing then
        for s = 0 to sites - 1 do
          if rank.(s) < 0 then addrs.(s) <- addrs.(s) + ((!k - 1) * deltas.(s))
        done;
      l1.n_skipped <- l1.n_skipped + ((!k - 1) * p.stayers)
    end;
    i := !i + !k
  done;
  l1.n_accesses <- l1.n_accesses + (n * sites);
  !mem

(* Counts [k] accesses, [misses] of them missing, at [t] without a probe. *)
let count_replayed t k misses =
  t.n_accesses <- t.n_accesses + k;
  t.n_skipped <- t.n_skipped + k;
  t.n_replayed <- t.n_replayed + k;
  t.n_misses <- t.n_misses + misses

(* Counts a walk of [accesses] accesses whose L1 misses are [o] at
   every level without a probe: L2 sees the L1 misses, L3 the L2
   misses. *)
let count_outcome h ~accesses o =
  let to_l3 = ref 0 and to_mem = ref 0 and i = ref 1 in
  while !i < o.len do
    (match o.log.(!i) land 3 with
    | 1 -> incr to_l3
    | 2 ->
        incr to_l3;
        incr to_mem
    | _ -> ());
    i := !i + 2
  done;
  let l1_misses = outcome_misses o in
  count_replayed h.l1 accesses l1_misses;
  count_replayed h.l2 l1_misses !to_l3;
  count_replayed h.l3 !to_l3 !to_mem

(* [count_outcome] and the cost sum in one pass: replays are the
   simulator's commonest step. *)
let replay h ~accesses o ~costs mem_cycles =
  let mem = ref mem_cycles and to_l3 = ref 0 and to_mem = ref 0 in
  let i = ref 1 in
  while !i < o.len do
    let served = o.log.(!i) in
    mem := !mem +. costs.(served lsr 2);
    (match served land 3 with
    | 1 -> incr to_l3
    | 2 ->
        incr to_l3;
        incr to_mem
    | _ -> ());
    i := !i + 2
  done;
  let l1_misses = outcome_misses o in
  count_replayed h.l1 accesses l1_misses;
  count_replayed h.l2 l1_misses !to_l3;
  count_replayed h.l3 !to_l3 !to_mem;
  !mem

(* ---- replay chains --------------------------------------------------- *)

type chain = {
  mutable fixed : bool;
  mutable known : bool;
  mutable last : outcome;
  mutable spare : outcome;
}

let chain () =
  { fixed = false; known = false; last = outcome (); spare = outcome () }

let spare c =
  clear c.spare;
  c.spare

let repeated c =
  let o = c.spare in
  c.fixed <- outcome_misses o = 0 || (c.known && same_outcome o c.last);
  c.spare <- c.last;
  c.last <- o;
  c.known <- true

(* A walk that missed nowhere has the empty outcome. *)
let broken c ~clean =
  c.fixed <- clean;
  clear c.last;
  c.known <- clean

(* ---- movers-only replay ---------------------------------------------- *)

(* A stayer walks the lines from its first to its last in order, and
   reaches a mover's one set when some line in that span does: the set's
   distance past the span's lowest line, modulo the set count, is at
   most the span (every set, once the span reaches the set count). *)
let stayers_avoid_movers h p ~n ~addrs =
  let shift = h.l1.line_shift and mask = h.l1.set_mask in
  let stayers = p.stayer_sites and movers = p.movers in
  let clear = ref true in
  for c = 0 to Array.length stayers - 1 do
    let s = stayers.(c) in
    let first = addrs.(s) asr shift
    and last = (addrs.(s) + ((n - 1) * p.deltas.(s))) asr shift in
    let lo = if first < last then first else last in
    let span = abs (last - first) in
    for m = 0 to Array.length movers - 1 do
      if ((addrs.(movers.(m)) asr shift) - lo) land mask <= span then
        clear := false
    done
  done;
  !clear

let movers_outcome p o ~into =
  clear into;
  let i = ref 0 in
  while !i < o.len do
    let served = o.log.(!i + 1) in
    if p.rank.((served lsr 2) / 3) >= 0 then push into o.log.(!i) served;
    i := !i + 2
  done

(* The stayers run in windows of their own: a window's first iteration
   probes every stayer, in body order, and the window lasts while every
   stayer stays in its line. Their misses are logged in [p.stayer_log];
   then one pass merges the two logs by position, adding each miss's
   cost in access order. *)
let replay_movers ?record h p ~n ~addrs ~movers ~costs mem_cycles =
  let l1 = h.l1 in
  let shift = l1.line_shift and mask = l1.set_mask in
  let tags = l1.tags and ways = l1.ways in
  let deltas = p.deltas and stayers = p.stayer_sites in
  let sites = Array.length deltas and n_stayers = Array.length stayers in
  let line = 1 lsl shift in
  let stayed = p.stayer_log in
  clear stayed;
  let logged = Some stayed in
  let i = ref 0 and windows = ref 0 in
  while !i < n do
    let k = ref (n - !i) in
    for c = 0 to n_stayers - 1 do
      let s = stayers.(c) in
      let a = addrs.(s) and d = deltas.(s) in
      if d <> 0 then begin
        let stay =
          if d > 0 then (line - 1 - (a land (line - 1))) / d
          else (a land (line - 1)) / -d
        in
        if stay < !k - 1 then k := stay + 1
      end;
      let line_id = a asr shift in
      let set = line_id land mask in
      if tags.(set * ways) <> line_id && not (scan l1 line_id set) then
        ignore (miss h logged s a ((!i * sites) + s))
    done;
    for c = 0 to n_stayers - 1 do
      let s = stayers.(c) in
      addrs.(s) <- addrs.(s) + (!k * deltas.(s))
    done;
    incr windows;
    i := !i + !k
  done;
  for c = 0 to Array.length p.movers - 1 do
    let s = p.movers.(c) in
    addrs.(s) <- addrs.(s) + (n * deltas.(s))
  done;
  let mem = ref mem_cycles and m = ref 0 and st = ref 0 in
  while !m < movers.len || !st < stayed.len do
    let from_movers =
      !st >= stayed.len || (!m < movers.len && movers.log.(!m) < stayed.log.(!st))
    in
    let o, j = if from_movers then (movers, m) else (stayed, st) in
    let served = o.log.(!j + 1) in
    mem := !mem +. costs.(served lsr 2);
    (match record with None -> () | Some r -> push r o.log.(!j) served);
    j := !j + 2
  done;
  let probed = !windows * n_stayers and stayer_accesses = n * n_stayers in
  l1.n_accesses <- l1.n_accesses + stayer_accesses;
  l1.n_skipped <- l1.n_skipped + stayer_accesses - probed;
  (* L2 and L3 saw the stayers' misses; the movers' are counted here. *)
  count_outcome h ~accesses:(n * Array.length p.movers) movers;
  !mem
