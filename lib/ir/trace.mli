(** Structured event tracing for the compilation pipeline.

    Every instrumented layer — pass manager spans, rewrite-driver runs,
    per-pattern attempt/hit events, interpreter compile/exec spans — emits
    {!event}s through this module to pluggable {!sink}s. With no sink
    installed, {!emit} is a single ref read, so leaving the call sites in
    hot paths costs nothing (under 50 ns/call, asserted by
    test/test_trace.ml's "disabled emit stays under 50 ns/call").

    Two sinks ship with the repo: {!Chrome} accumulates Chrome
    trace-event JSON (the [--trace=FILE] flag; load the file in Perfetto
    or chrome://tracing), and {!Memory} is a bounded ring buffer for unit
    tests. *)

type arg =
  | A_str of string
  | A_int of int
  | A_float of float
  | A_bool of bool

type phase =
  | Begin  (** opens a duration span; must be closed by a matching [End] *)
  | End
  | Instant  (** a point event (pattern attempt, remark) *)

type event = {
  ev_ts : float;  (** absolute [Unix.gettimeofday] seconds *)
  ev_cat : string;  (** "pass", "driver", "pattern", "interp", "remark" *)
  ev_name : string;
  ev_phase : phase;
  ev_args : (string * arg) list;
}

type sink = event -> unit

type handle

(** [install sink] registers a sink on the calling domain; every
    subsequent event emitted {e by that domain} is delivered to all of
    its installed sinks. The sink stack is domain-local: a compilation
    running on another domain neither sees this sink nor disturbs it
    (docs/CONCURRENCY.md). *)
val install : sink -> handle

val uninstall : handle -> unit

(** [with_sink sink f] runs [f ()] with [sink] installed,
    exception-safely uninstalling it afterwards. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** True when at least one sink is installed on the calling domain. Guard
    expensive argument construction with this; {!emit} itself already
    checks. *)
val enabled : unit -> bool

(** Number of sinks installed on the calling domain. Exposed for
    exception-safety regression tests. *)
val installed_count : unit -> int

val emit : ?args:(string * arg) list -> cat:string -> phase:phase -> string -> unit
val instant : ?args:(string * arg) list -> cat:string -> string -> unit
val begin_ : ?args:(string * arg) list -> cat:string -> string -> unit
val end_ : ?args:(string * arg) list -> cat:string -> string -> unit

(** [span ?args ~cat name f] brackets [f ()] in a Begin/End pair
    (exception-safe). With no sink installed this is exactly [f ()]. *)
val span :
  ?args:(string * arg) list ->
  cat:string ->
  string ->
  (unit -> 'a) ->
  'a

(** In-memory ring buffer sink for tests: keeps the last [capacity]
    events, counting the overflow. *)
module Memory : sig
  type t

  (** Creates and installs the sink ([capacity] defaults to 4096). *)
  val create : ?capacity:int -> unit -> t

  (** Buffered events, oldest first. *)
  val events : t -> event list

  (** Events discarded due to capacity overflow. *)
  val dropped : t -> int

  val clear : t -> unit

  (** Uninstall the sink; the buffered events stay readable. *)
  val detach : t -> unit
end

(** Chrome trace-event JSON sink. Timestamps are microseconds relative to
    sink creation; spans map to ["ph":"B"/"E"], instants to ["ph":"i"].
    The output loads in Perfetto / chrome://tracing. *)
module Chrome : sig
  type t

  (** Creates and installs the sink. *)
  val create : unit -> t

  (** Number of events captured so far. *)
  val count : t -> int

  (** The complete JSON document ([{"traceEvents":[...]}]). *)
  val contents : t -> string

  val write : t -> string -> unit

  val detach : t -> unit
end
