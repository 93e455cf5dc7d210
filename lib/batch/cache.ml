(* The persistent content-addressed compilation cache (store layout,
   journal format, and recovery invariants in docs/CACHE.md).

   Layout under the cache directory:

     objects/<k[0..1]>/<key>.json    committed artifact blobs
     journal                         append-only commit log

   Commit protocol, per [store]: write the blob to a temp file in its
   objects/ subdirectory, fsync, atomically rename to its final name,
   then append (and fsync) one "commit <key>" journal line. An entry is
   *committed* iff its journal line landed — the journal is authoritative,
   so every crash point has a defined outcome:

     - killed mid-blob-write: a temp file survives; recovery sweeps it.
     - killed after rename, before the journal line: the blob file exists
       but is not journaled; recovery discards it (the in-flight entry is
       recompiled — never served).
     - killed mid-journal-append: only the final journal line can be
       torn; recovery drops the torn line (and that entry's blob).

   [open_] runs the recovery scan, then compacts the journal (atomic
   rename) when it dropped anything. One process owns a cache directory
   at a time; within the process any number of domains may share the
   handle. A mutex guards the committed set, the hit/miss counters,
   invalidation and the whole of [store]; [find] reads and decodes a
   blob outside it. That is safe because a committed blob is immutable:
   it appears by atomic rename, and only invalidation removes it, so an
   unlocked read sees a whole blob or fails with [Sys_error] (a miss). *)

exception Injected_crash of string

(* Test-only fault injection: called with a crash-point label at each
   step of the commit protocol; tests install a hook that raises to
   simulate a kill at exactly that point. *)
let crash_hook : (string -> unit) ref = ref ignore

let crash_point label = !crash_hook label

type recovery = {
  rec_swept_tmp : int;
  rec_unjournaled : int;
  rec_missing_blob : int;
  rec_torn_journal : bool;
}

type t = {
  c_dir : string;
  c_committed : (string, int) Hashtbl.t;
      (** keys with journal lines, each with the sequence number of the
          [store] that committed it (0: replayed by [open_]) *)
  mutable c_commits : int;
  c_mutex : Mutex.t;
  c_recovery : recovery;
  mutable c_hits : int;
  mutable c_misses : int;
}

let dir t = t.c_dir

let objects_dir dir = Filename.concat dir "objects"

let journal_path dir = Filename.concat dir "journal"

let blob_path dir key =
  Filename.concat
    (Filename.concat (objects_dir dir) (String.sub key 0 2))
    (key ^ ".json")

let key parts = Support.Digest.strings parts

(* ---- open + recovery ----------------------------------------------------- *)

let read_journal dir =
  let path = journal_path dir in
  if not (Sys.file_exists path) then ([], false)
  else begin
    let src = In_channel.with_open_bin path In_channel.input_all in
    (* A crash during an append can tear only the last line: a source not
       ending in '\n' has a torn tail, which we drop. Any line that is
       not exactly "commit <32-hex>" is likewise ignored. *)
    let torn = src <> "" && src.[String.length src - 1] <> '\n' in
    let lines = String.split_on_char '\n' src in
    let lines =
      match List.rev lines with
      | last :: rest when torn || last = "" -> List.rev rest
      | _ -> lines
    in
    let keys =
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "commit"; k ] when Support.Digest.is_hex k -> Some k
          | _ -> None)
        lines
    in
    (keys, torn)
  end

let open_ ~dir =
  Support.Atomic_io.mkdir_p (objects_dir dir);
  let journaled, torn = read_journal dir in
  let committed = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace committed k 0) journaled;
  (* Sweep the object tree: temp files are debris from a kill mid-write;
     a well-named blob with no journal line is a commit whose journal
     append never landed — both are partial entries, both are dropped.
     The sweep also records which committed keys have their blob. *)
  let swept_tmp = ref 0 and unjournaled = ref 0 in
  let present = Hashtbl.create (Hashtbl.length committed) in
  let odir = objects_dir dir in
  Array.iter
    (fun sub ->
      let subdir = Filename.concat odir sub in
      if try Sys.is_directory subdir with Sys_error _ -> false then
        Array.iter
          (fun name ->
            let path = Filename.concat subdir name in
            if Support.Atomic_io.is_tmp_name name then begin
              (try Sys.remove path with Sys_error _ -> ());
              incr swept_tmp
            end
            else
              let k = Filename.chop_suffix_opt ~suffix:".json" name in
              match k with
              | Some k when Support.Digest.is_hex k ->
                  if not (Hashtbl.mem committed k) then begin
                    (try Sys.remove path with Sys_error _ -> ());
                    incr unjournaled
                  end
                  else if String.equal (String.sub k 0 2) sub then
                    (* only in its own subdirectory, where [find] looks *)
                    Hashtbl.replace present k ()
              | _ -> ())
          (Sys.readdir subdir))
    (Sys.readdir odir);
  (* Journal lines whose blob vanished (e.g. a corrupt blob unlinked by a
     previous [find]) are dropped from the committed set. *)
  let missing = ref 0 in
  Hashtbl.filter_map_inplace
    (fun k seq ->
      if Hashtbl.mem present k then Some seq
      else begin
        incr missing;
        None
      end)
    committed;
  (* Compact: if recovery dropped anything, rewrite the journal to list
     exactly the surviving entries (atomic rename, like any artifact). *)
  if torn || !missing > 0 || Hashtbl.length committed < List.length journaled
  then begin
    let buf = Buffer.create 1024 in
    Hashtbl.iter
      (fun k _ -> Buffer.add_string buf ("commit " ^ k ^ "\n"))
      committed;
    Support.Atomic_io.write_file ~path:(journal_path dir)
      (Buffer.contents buf)
  end;
  {
    c_dir = dir;
    c_committed = committed;
    c_commits = 0;
    c_mutex = Mutex.create ();
    c_recovery =
      {
        rec_swept_tmp = !swept_tmp;
        rec_unjournaled = !unjournaled;
        rec_missing_blob = !missing;
        rec_torn_journal = torn;
      };
    c_hits = 0;
    c_misses = 0;
  }

let recovery t = t.c_recovery

(* ---- lookup -------------------------------------------------------------- *)

let with_lock t f =
  Mutex.lock t.c_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.c_mutex) f

(* Registry-exported cache activity (docs/OBSERVABILITY.md): the
   hit/miss counters mirror the per-handle pair below so a --metrics file
   agrees with report.json; the latency histograms include lock wait and,
   for [find], the blob read and decode. *)
let m_hits =
  Support.Once.make (fun () ->
      Ir.Metrics.counter ~help:"cache lookups served a payload"
        "mlt_cache_hits")

let m_misses =
  Support.Once.make (fun () ->
      Ir.Metrics.counter ~help:"cache lookups that fell through to a compile"
        "mlt_cache_misses")

let m_stores =
  Support.Once.make (fun () ->
      Ir.Metrics.counter ~help:"cache blobs committed" "mlt_cache_stores")

let m_find_seconds =
  Support.Once.make (fun () ->
      Ir.Metrics.histogram ~help:"Cache.find latency incl. lock wait"
        "mlt_cache_find_seconds")

let m_store_seconds =
  Support.Once.make (fun () ->
      Ir.Metrics.histogram ~help:"Cache.store latency incl. lock wait"
        "mlt_cache_store_seconds")

let count_hit t =
  t.c_hits <- t.c_hits + 1;
  Ir.Metrics.incr (Support.Once.get m_hits)

let count_miss t =
  t.c_misses <- t.c_misses + 1;
  Ir.Metrics.incr (Support.Once.get m_misses)

let find t k ~decode =
  Ir.Metrics.time (Support.Once.get m_find_seconds) @@ fun () ->
  let seq =
    with_lock t (fun () ->
        let seq = Hashtbl.find_opt t.c_committed k in
        if seq = None then count_miss t;
        seq)
  in
  match seq with
  | None -> None
  | Some seq ->
      (* Unlocked: the blob is immutable while committed (module header).
         A blob that cannot be read, parsed or decoded is dropped — a miss
         and a recompile, never a crash or a stale artifact. The drop
         happens only if the commit we looked up is still the current
         one: a read that raced another domain's invalidation (and perhaps
         its re-store) must not unlink the newer blob. *)
      let path = blob_path t.c_dir k in
      let decoded =
        match In_channel.with_open_bin path In_channel.input_all with
        | exception Sys_error _ -> None
        | src -> (
            match Support.Json.parse src with
            | Error _ -> None
            | Ok json -> ( try Some (decode json) with _ -> None))
      in
      with_lock t (fun () ->
          match decoded with
          | Some _ -> count_hit t
          | None ->
              if Hashtbl.find_opt t.c_committed k = Some seq then begin
                Hashtbl.remove t.c_committed k;
                try Sys.remove path with Sys_error _ -> ()
              end;
              count_miss t);
      decoded

let mem t k = with_lock t (fun () -> Hashtbl.mem t.c_committed k)

let entry_count t = with_lock t (fun () -> Hashtbl.length t.c_committed)

let hit_miss t = with_lock t (fun () -> (t.c_hits, t.c_misses))

(* ---- commit -------------------------------------------------------------- *)

let store t ~key:k json =
  if not (Support.Digest.is_hex k) then
    invalid_arg "Cache.store: key is not a digest";
  Ir.Metrics.time (Support.Once.get m_store_seconds) @@ fun () ->
  with_lock t (fun () ->
      if not (Hashtbl.mem t.c_committed k) then begin
        Ir.Metrics.incr (Support.Once.get m_stores);
        let path = blob_path t.c_dir k in
        Support.Atomic_io.mkdir_p (Filename.dirname path);
        let payload = Support.Json.to_string json in
        crash_point "store:before-tmp";
        (* Write the blob through the atomic writer, with an injection
           point mid-payload so tests can tear the temp file. *)
        Support.Atomic_io.with_file ~path (fun oc ->
            let half = String.length payload / 2 in
            Out_channel.output_string oc (String.sub payload 0 half);
            crash_point "store:mid-blob";
            Out_channel.output_substring oc payload half
              (String.length payload - half);
            crash_point "store:before-rename");
        crash_point "store:before-journal";
        Support.Atomic_io.append_line ~path:(journal_path t.c_dir)
          ("commit " ^ k);
        crash_point "store:after-journal";
        t.c_commits <- t.c_commits + 1;
        Hashtbl.replace t.c_committed k t.c_commits
      end)
