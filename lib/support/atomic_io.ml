(* Crash-safe file emission: every artifact writer in the tree (batch
   outputs, reports, Chrome traces, cache blobs) commits through
   write-tmp-then-atomic-rename, so a crash or kill at any instant leaves
   either the previous file or the new one — never a torn mixture — and
   never leaks a stray temp file on an exception. *)

let tmp_counter = Atomic.make 0

(* Temp name in the *same directory* as the target, so the final
   [Sys.rename] never crosses a filesystem boundary (rename is only
   atomic within one). Pid + atomic counter keep concurrent writers
   (domains or processes) from colliding. *)
let tmp_path path =
  Printf.sprintf "%s.tmp-%d-%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1)

(* Recognizes names produced by [tmp_path] (any ".tmp-" marker), so
   recovery scans can sweep temp files orphaned by a kill. *)
let is_tmp_name name =
  let needle = ".tmp-" in
  let nl = String.length needle and l = String.length name in
  let rec go i =
    i + nl <= l && (String.equal (String.sub name i nl) needle || go (i + 1))
  in
  go 0

let fsync_channel oc =
  Out_channel.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Best-effort directory fsync so the rename itself is durable; some
   filesystems refuse to open or fsync a directory — that only weakens
   durability of the *name*, never atomicity of the content. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let with_file ~path f =
  let tmp = tmp_path path in
  let oc = Out_channel.open_bin tmp in
  let committed = ref false in
  Fun.protect
    ~finally:(fun () ->
      (* Writer raised (or fsync/rename failed): close and remove the
         temp so no partial file survives under any name. *)
      if not !committed then begin
        (try Out_channel.close oc with Sys_error _ -> ());
        try Sys.remove tmp with Sys_error _ -> ()
      end)
    (fun () ->
      let v = f oc in
      fsync_channel oc;
      Out_channel.close oc;
      Sys.rename tmp path;
      committed := true;
      fsync_dir (Filename.dirname path);
      v)

let write_file ~path contents =
  with_file ~path (fun oc -> Out_channel.output_string oc contents)

let mkdir_p dir =
  let rec go d =
    if Sys.file_exists d then begin
      if not (try Sys.is_directory d with Sys_error _ -> false) then
        Diag.errorf
          "cannot create directory %s: %s exists and is not a directory"
          dir d
    end
    else begin
      let parent = Filename.dirname d in
      if parent <> d then go parent;
      try Unix.mkdir d 0o755 with
      | Unix.Unix_error (Unix.EEXIST, _, _) ->
          (* Raced another creator: fine if what won is a directory,
             precise error if a file appeared under this name. *)
          if not (try Sys.is_directory d with Sys_error _ -> false) then
            Diag.errorf
              "cannot create directory %s: %s exists and is not a directory"
              dir d
    end
  in
  go dir

(* Append one line durably. O_APPEND keeps concurrent appenders from
   interleaving mid-line for short writes; a crash can only tear the
   *last* line, which journal readers must (and do) tolerate. *)
let append_line ~path line =
  let fd =
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let data = Bytes.of_string (line ^ "\n") in
      let len = Bytes.length data in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write fd data !off (len - !off)
      done;
      Unix.fsync fd)
