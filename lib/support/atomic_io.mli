(** Crash-safe artifact I/O: all file emission in the tree (batch
    outputs, [report.json], Chrome traces, cache blobs) goes through this
    module so no code path can leave a torn file. Writes land in a temp
    file in the target's directory and are committed by an atomic
    [rename]; a crash, kill, or exception at any instant leaves either
    the old file or the new one, and exceptions remove the temp. *)

(** [with_file ~path f] opens a temp file next to [path], runs [f] on its
    channel, then fsyncs, closes, and atomically renames onto [path]
    (best-effort directory fsync afterwards). If [f]
    — or the commit itself — raises, [path] is untouched and the temp is
    removed; the exception propagates. *)
val with_file : path:string -> (out_channel -> 'a) -> 'a

(** [write_file ~path contents] — {!with_file} writing one string. *)
val write_file : path:string -> string -> unit

(** [mkdir_p dir] creates [dir] and its parents. Raises a precise
    {!Diag.Error} if any component exists and is not a directory
    (including when a concurrent creator wins the [EEXIST] race with a
    non-directory). *)
val mkdir_p : string -> unit

(** [append_line ~path line] appends [line ^ "\n"] with [O_APPEND] and
    fsyncs, creating the file if needed. A crash
    can tear only the final line — append-only journal readers must skip
    a trailing partial line. *)
val append_line : path:string -> string -> unit

(** [is_tmp_name name] — [name] carries this module's temp-file marker;
    recovery scans use it to sweep temps orphaned by a kill. *)
val is_tmp_name : string -> bool
