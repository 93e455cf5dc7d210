module J = Support.Json

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

type t = { d_id : int; d_name : string; d_kind : kind; d_help : string }

let bucket_count = 64

(* ---------------------------------------------------------------------- *)
(* Registry: process-global, write-once descriptors behind one mutex:
   mutation is mutex-serialized, handles are immutable once published. *)

let registry_mutex = Mutex.create ()
let by_name : (string, t) Hashtbl.t = Hashtbl.create 64

(* Newest-first; reversed (registration order) where it matters. *)
let descriptors : t list ref = ref []
let next_id = ref 0

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let register kind ?(help = "") name =
  locked (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some d ->
          if d.d_kind <> kind then
            Support.Diag.errorf "metric %s already registered as a %s" name
              (kind_name d.d_kind);
          d
      | None ->
          let d =
            { d_id = !next_id; d_name = name; d_kind = kind; d_help = help }
          in
          incr next_id;
          Hashtbl.add by_name name d;
          descriptors := d :: !descriptors;
          d)

let counter ?help name = register Counter ?help name
let gauge ?help name = register Gauge ?help name
let histogram ?help name = register Histogram ?help name

(* ---------------------------------------------------------------------- *)
(* Per-domain shards.  A shard is an id-indexed cell array owned by one
   domain; updates never synchronize.  Shards register themselves in
   [shards] at creation so [snapshot] can see every live domain's
   cells.  A dying domain folds its cells into [retired] and leaves
   [shards] ([Domain.at_exit]): [Support.Pool] spawns fresh domains on
   every run, so otherwise every run would leave one more shard for
   every snapshot to fold. *)

type hist_cell = {
  mutable hc_count : int;
  mutable hc_sum : float;
  hc_buckets : int array;
}

type cell =
  | C_empty
  | C_counter of int ref
  | C_gauge of float option ref
  | C_hist of hist_cell

type shard = { mutable cells : cell array }

(* Only ever touched under [registry_mutex]. *)
let retired = { cells = [||] }
let shards : shard list ref = ref [ retired ]

(* Add [cell] into [retired]'s cell [id], copying: the dying domain
   may still run other exit callbacks, and they must not write into
   [retired]. *)
let retire_cell id cell =
  let n = Array.length retired.cells in
  if id >= n then begin
    let grown = Array.make (max (id + 1) (2 * n)) C_empty in
    Array.blit retired.cells 0 grown 0 n;
    retired.cells <- grown
  end;
  retired.cells.(id) <-
    (match (retired.cells.(id), cell) with
    | _, C_empty -> retired.cells.(id)
    | C_empty, C_counter r -> C_counter (ref !r)
    | C_empty, C_gauge r -> C_gauge (ref !r)
    | C_empty, C_hist h ->
        C_hist { h with hc_buckets = Array.copy h.hc_buckets }
    | C_counter a, C_counter r ->
        a := !a + !r;
        C_counter a
    | C_gauge a, C_gauge r ->
        (match (!a, !r) with
        | Some x, Some y -> a := Some (Float.max x y)
        | None, v -> a := v
        | Some _, None -> ());
        C_gauge a
    | C_hist a, C_hist h ->
        a.hc_count <- a.hc_count + h.hc_count;
        a.hc_sum <- a.hc_sum +. h.hc_sum;
        Array.iteri
          (fun b n -> a.hc_buckets.(b) <- a.hc_buckets.(b) + n)
          h.hc_buckets;
        C_hist a
    | _ ->
        (* Unreachable: a cell's kind is its descriptor's. *)
        assert false)

let retire s =
  locked (fun () ->
      Array.iteri retire_cell s.cells;
      shards := List.filter (fun x -> x != s) !shards)

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = { cells = Array.make 16 C_empty } in
      locked (fun () -> shards := s :: !shards);
      Domain.at_exit (fun () -> retire s);
      s)

let fresh_cell = function
  | Counter -> C_counter (ref 0)
  | Gauge -> C_gauge (ref None)
  | Histogram ->
      C_hist { hc_count = 0; hc_sum = 0.; hc_buckets = Array.make bucket_count 0 }

let cell_of d =
  let s = Domain.DLS.get shard_key in
  let n = Array.length s.cells in
  if d.d_id >= n then begin
    let grown = Array.make (max (d.d_id + 1) (2 * n)) C_empty in
    Array.blit s.cells 0 grown 0 n;
    s.cells <- grown
  end;
  match s.cells.(d.d_id) with
  | C_empty ->
      let c = fresh_cell d.d_kind in
      s.cells.(d.d_id) <- c;
      c
  | c -> c

(* ---------------------------------------------------------------------- *)
(* Enablement: the disabled path is one [Atomic.get] and a conditional,
   matching the disabled [Trace] sink-stack budget. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* ---------------------------------------------------------------------- *)
(* Bucketing: log2 over nanoseconds via [frexp].  For finite ns >= 1,
   [frexp ns = (m, e)] with m in [0.5, 1) puts ns in [2^(e-1), 2^e), which
   is exactly bucket [e]. *)

let bucket_of_seconds v =
  let ns = v *. 1e9 in
  if Float.is_nan ns || ns < 1.0 then 0
  else if ns = Float.infinity then bucket_count - 1
  else
    let _, e = Float.frexp ns in
    if e >= bucket_count then bucket_count - 1 else e

let bucket_upper_seconds i =
  if i >= bucket_count - 1 then Float.infinity else Float.ldexp 1e-9 i

(* ---------------------------------------------------------------------- *)
(* Updates *)

let add d n =
  if Atomic.get enabled_flag then
    match cell_of d with
    | C_counter r -> r := !r + n
    | _ -> Support.Diag.errorf "metric %s is not a counter" d.d_name

let incr d = add d 1

let set d v =
  if Atomic.get enabled_flag && Float.is_finite v then
    match cell_of d with
    | C_gauge r -> r := Some v
    | _ -> Support.Diag.errorf "metric %s is not a gauge" d.d_name

let observe d v =
  if Atomic.get enabled_flag then
    match cell_of d with
    | C_hist h ->
        h.hc_count <- h.hc_count + 1;
        if Float.is_finite v then h.hc_sum <- h.hc_sum +. v;
        let b = bucket_of_seconds v in
        h.hc_buckets.(b) <- h.hc_buckets.(b) + 1
    | _ -> Support.Diag.errorf "metric %s is not a histogram" d.d_name

let time d f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> observe d (Unix.gettimeofday () -. t0)) f
  end

(* ---------------------------------------------------------------------- *)
(* Snapshots *)

type histogram_snapshot = { h_count : int; h_sum : float; h_buckets : int array }

type value =
  | V_counter of int
  | V_gauge of float
  | V_histogram of histogram_snapshot

type sample = { s_metric : string; s_help : string; s_value : value }

let zero_value = function
  | Counter -> V_counter 0
  | Gauge -> V_gauge 0.
  | Histogram ->
      V_histogram
        { h_count = 0; h_sum = 0.; h_buckets = Array.make bucket_count 0 }

let merge_cell kind acc cell =
  match (kind, acc, cell) with
  | _, acc, C_empty -> acc
  | Counter, V_counter a, C_counter r -> V_counter (a + !r)
  | Gauge, V_gauge a, C_gauge { contents = Some v } ->
      V_gauge (Float.max a v)
  | Gauge, (V_gauge _ as a), C_gauge { contents = None } -> a
  | Histogram, V_histogram a, C_hist h ->
      V_histogram
        {
          h_count = a.h_count + h.hc_count;
          h_sum = a.h_sum +. h.hc_sum;
          h_buckets = Array.map2 ( + ) a.h_buckets h.hc_buckets;
        }
  | _ ->
      (* Unreachable: a cell is only ever created through its
         descriptor, whose kind is write-once. *)
      assert false

(* The fold holds the lock, so no shard retires during it: a dying
   shard is counted either live or in [retired], never both. *)
let snapshot () =
  locked (fun () ->
      List.rev_map
        (fun d ->
          let v =
            List.fold_left
              (fun acc s ->
                if d.d_id < Array.length s.cells then
                  merge_cell d.d_kind acc s.cells.(d.d_id)
                else acc)
              (zero_value d.d_kind) !shards
          in
          { s_metric = d.d_name; s_help = d.d_help; s_value = v })
        !descriptors)
  |> List.sort (fun a b -> String.compare a.s_metric b.s_metric)

(* ---------------------------------------------------------------------- *)
(* JSON exposition *)

let kind_of_value = function
  | V_counter _ -> Counter
  | V_gauge _ -> Gauge
  | V_histogram _ -> Histogram

(* Only non-empty buckets are listed; the overflow bucket's bound is the
   string "+Inf" because the strict writer rejects non-finite numbers. *)
let histogram_fields h =
  let buckets =
    Array.to_list h.h_buckets
    |> List.mapi (fun i n -> (i, n))
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (i, n) ->
           let le =
             if i = bucket_count - 1 then J.Str "+Inf"
             else J.Num (bucket_upper_seconds i)
           in
           J.Obj [ ("le", le); ("count", J.num_int n) ])
  in
  [
    ("count", J.num_int h.h_count);
    ("sum", J.Num h.h_sum);
    ("buckets", J.List buckets);
  ]

let histogram_snapshot_json h = J.Obj (histogram_fields h)

let sample_json s =
  let base =
    [ ("name", J.Str s.s_metric); ("type", J.Str (kind_name (kind_of_value s.s_value))) ]
  in
  let help = if s.s_help = "" then [] else [ ("help", J.Str s.s_help) ] in
  let payload =
    match s.s_value with
    | V_counter n -> [ ("value", J.num_int n) ]
    | V_gauge v -> [ ("value", J.Num v) ]
    | V_histogram h -> histogram_fields h
  in
  J.Obj (base @ help @ payload)

let to_json_value ?run_meta samples =
  let meta = match run_meta with Some m -> [ ("run_meta", m) ] | None -> [] in
  J.Obj (meta @ [ ("metrics", J.List (List.map sample_json samples)) ])

let to_json ?run_meta samples = J.to_string (to_json_value ?run_meta samples)

let write ~path samples =
  Support.Atomic_io.write_file ~path
    (to_json ~run_meta:(Support.Run_meta.json ()) samples ^ "\n")

(* ---------------------------------------------------------------------- *)
(* Reader (trace_stats, tests) *)

let parse_sample j =
  let ( let* ) = Result.bind in
  let str k =
    match J.member k j with
    | Some (J.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "sample missing string %S" k)
  in
  let int k =
    match Option.bind (J.member k j) J.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "sample missing integer %S" k)
  in
  let* name = str "name" in
  let* ty = str "type" in
  let help =
    match J.member "help" j with Some (J.Str h) -> h | _ -> ""
  in
  let* value =
    match ty with
    | "counter" ->
        let* n = int "value" in
        Ok (V_counter n)
    | "gauge" -> (
        match J.member "value" j with
        | Some (J.Num v) -> Ok (V_gauge v)
        | _ -> Error (Printf.sprintf "gauge %s missing numeric value" name))
    | "histogram" ->
        let* count = int "count" in
        let* sum =
          match J.member "sum" j with
          | Some (J.Num v) -> Ok v
          | _ -> Error (Printf.sprintf "histogram %s missing sum" name)
        in
        let buckets = Array.make bucket_count 0 in
        let* () =
          match J.member "buckets" j with
          | Some (J.List rows) ->
              List.fold_left
                (fun acc row ->
                  let* () = acc in
                  let* n =
                    match Option.bind (J.member "count" row) J.to_int with
                    | Some n -> Ok n
                    | None ->
                        Error
                          (Printf.sprintf "histogram %s: bucket without count"
                             name)
                  in
                  let* i =
                    match J.member "le" row with
                    | Some (J.Str "+Inf") -> Ok (bucket_count - 1)
                    (* [le] is bucket [i]'s exclusive upper bound, and
                       an exact power of two *opens* the next bucket in
                       [bucket_of_seconds] — step back one. *)
                    | Some (J.Num le) ->
                        Ok (max 0 (bucket_of_seconds le - 1))
                    | _ ->
                        Error
                          (Printf.sprintf "histogram %s: bucket without le"
                             name)
                  in
                  buckets.(i) <- buckets.(i) + n;
                  Ok ())
                (Ok ()) rows
          | _ -> Error (Printf.sprintf "histogram %s missing buckets" name)
        in
        Ok (V_histogram { h_count = count; h_sum = sum; h_buckets = buckets })
    | other -> Error (Printf.sprintf "sample %s: unknown type %S" name other)
  in
  Ok { s_metric = name; s_help = help; s_value = value }

let parse_json j =
  match J.member "metrics" j with
  | Some (J.List items) ->
      List.fold_left
        (fun acc item ->
          Result.bind acc (fun rev ->
              Result.map (fun s -> s :: rev) (parse_sample item)))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error "document has no \"metrics\" array"

(* ---------------------------------------------------------------------- *)
(* Test support *)

let reset () =
  locked (fun () ->
      List.iter
        (fun s ->
          Array.iter
            (function
              | C_empty -> ()
              | C_counter r -> r := 0
              | C_gauge r -> r := None
              | C_hist h ->
                  h.hc_count <- 0;
                  h.hc_sum <- 0.;
                  Array.fill h.hc_buckets 0 bucket_count 0)
            s.cells)
        !shards)

let shard_count () = locked (fun () -> List.length !shards)
