(** Structured compiler remarks: machine-readable notes about what the
    optimizer did ([Applied]), what it almost did ([Missed], with the
    matcher stage that rejected the near-miss), analysis observations,
    and user-facing warnings.

    Like {!Trace}, delivery is through pluggable sinks so tests capture
    remarks instead of scraping stderr. With no sink installed,
    [Warning]s still print to stderr (warnings must never be silently
    dropped) and everything else is discarded. Every remark is also
    mirrored into the trace as an instant event (category ["remark"])
    when tracing is enabled. *)

type kind =
  | Applied  (** a pattern/tactic rewrote the IR *)
  | Missed  (** a near-miss: a tactic matched partially, then a stage rejected it *)
  | Analysis
  | Warning

type t = {
  r_kind : kind;
  r_context : string option;  (** enclosing pass or component *)
  r_pattern : string option;  (** pattern/tactic name *)
  r_stage : string option;
      (** for [Missed]: the matcher stage that rejected — one of
          ["control-flow"], ["op-chain"], ["access-unification"],
          ["coverage"] — or ["dependence"], the legality test that
          refused a loop transform *)
  r_loc : Support.Loc.t;
  r_message : string;
}

val kind_name : kind -> string

(** Render as [LOC: remark [KIND] PATTERN (stage: STAGE): MESSAGE]. *)
val to_string : t -> string

type sink = t -> unit

type handle

(** Sink stacks are domain-local, like {!Trace}'s: a sink installed on
    one domain receives only remarks emitted by that domain
    (docs/CONCURRENCY.md). *)
val install : sink -> handle

val uninstall : handle -> unit

(** [with_sink sink f] runs [f ()] with [sink] installed,
    exception-safely uninstalling it afterwards. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** True when a sink is installed on the calling domain. Emitters of
    non-warning remarks should guard message construction with this —
    near-miss explanation is only worth computing when someone is
    listening. *)
val enabled : unit -> bool

(** Number of sinks installed on the calling domain (for tests). *)
val installed_count : unit -> int

val emit : t -> unit

(** [remark ?loc ?context ?pattern ?stage kind fmt ...] — printf-style
    construction + {!emit}. *)
val remark :
  ?loc:Support.Loc.t ->
  ?context:string ->
  ?pattern:string ->
  ?stage:string ->
  kind ->
  ('a, unit, string, unit) format4 ->
  'a

(** Warnings print to stderr when no sink is installed. *)
val warningf :
  ?loc:Support.Loc.t ->
  ?context:string ->
  ('a, unit, string, unit) format4 ->
  'a

(** Parses a [--remarks] argument: ["missed"], ["applied"],
    ["analysis"], or ["all"]. *)
val kinds_of_string : string -> kind list option

(** A stderr printer filtered to the given kinds (all kinds if
    omitted) — what the [--remarks] CLI flag installs. *)
val stderr_sink : ?kinds:kind list -> unit -> sink
