(** Kgm_telemetry — the observability substrate of KGModel.

    One collector gathers three kinds of signal:
    - {e spans}: hierarchical, monotonic-clock timed regions
      (load | reason | flush stages, per-rule chase work, figure
      generation, ...);
    - {e counters}: named monotone integers (facts derived, nulls
      invented, chase-check hits, ...);
    - {e histograms}: log-scale latency distributions (per-rule
      evaluation times, ...).

    Every instrumentation point takes a collector explicitly; the
    {!null} collector makes all of them no-ops, so instrumented code
    pays nothing when observability is off. Two exporters are provided:
    a human-readable {!summary} table and {!chrome_trace}, the Chrome
    trace-event JSON format loadable in [chrome://tracing] and
    Perfetto. *)

module Clock : sig
  val now : unit -> float
  (** Monotonic time in seconds, from [clock_gettime(CLOCK_MONOTONIC)].
      Only differences are meaningful; never goes backwards on wall
      clock adjustment (unlike [Unix.gettimeofday]). *)

  val now_ns : unit -> int64
  (** Same instant in integer nanoseconds. *)
end

module Histogram : sig
  type t
  (** A log-2-bucketed latency histogram: bucket [i] counts
      observations in [[2^(i-1), 2^i)] microseconds. Cheap (one array
      index per observation), bounded memory. *)

  val create : unit -> t
  val observe : t -> float -> unit
  (** [observe h seconds] — negative observations clamp to 0. *)

  type snapshot = {
    count : int;
    sum : float;                    (** seconds *)
    min : float;
    max : float;
    buckets : (float * int) list;   (** (upper bound in seconds, count),
                                        non-empty buckets only *)
  }

  val snapshot : t -> snapshot
  val mean : snapshot -> float
  val quantile : snapshot -> float -> float
  (** [quantile s 0.9] — upper bound of the bucket holding the q-th
      observation; 0 on an empty snapshot. *)
end

type span = {
  sp_id : int;
  sp_parent : int option;  (** enclosing span, if any *)
  sp_depth : int;          (** 0 = top-level *)
  sp_name : string;
  sp_cat : string;         (** trace-event category, e.g. "stage", "rule" *)
  sp_start : float;        (** seconds since the collector's epoch *)
  sp_dur : float;
  sp_args : (string * string) list;
}

type t
(** A collector. Not thread-safe (the engine is single-threaded). *)

val create : unit -> t
(** A fresh, enabled collector; its epoch is the creation instant. *)

val null : t
(** The disabled collector: every operation is a no-op. Use it as the
    default for [?telemetry] arguments. *)

val enabled : t -> bool

val reset : t -> unit
(** Drop all recorded spans, counters and histograms (epoch kept). *)

(** {1 Recording} *)

val with_span :
  t -> ?cat:string -> ?args:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span; nesting is tracked, so
    spans opened by [f] become children. Exceptions propagate; the span
    is closed either way. *)

val record_span :
  t -> ?cat:string -> ?args:(string * string) list -> string ->
  start:float -> stop:float -> unit
(** Record an already-timed region ([start]/[stop] from {!Clock.now});
    it is parented under the currently open [with_span], if any. Lets
    hot loops time unconditionally and record only when something
    happened. *)

val count : t -> ?by:int -> string -> unit
(** Bump a named counter (created at 0 on first use). *)

val observe : t -> string -> float -> unit
(** Feed one observation (seconds) into a named histogram. *)

(** {1 Reading} *)

val spans : t -> span list
(** The spans kept, in start order: the last {!max_spans} to close. *)

val max_spans : int
(** 2{^16}: a collector keeps this many span records at most, dropping
    the oldest to close; the per-name totals of {!summary} and
    {!prometheus} count every span. *)

val spans_dropped : t -> int
(** Closed spans no longer kept. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val histograms : t -> (string * Histogram.snapshot) list
(** Sorted by name. *)

val gauge : t -> string -> (unit -> int) -> unit
(** Register (or replace) a named gauge: a callback sampled at export
    time — the owner keeps the state where it lives (e.g. an
    [Atomic.t] queue depth) instead of pushing every change. No-op on
    the {!null} collector. The callback must be safe to call from the
    exporting thread; one that raises is skipped at sampling. *)

val gauges : t -> (string * int) list
(** Sampled now, sorted by name. *)

(** {1 Exporters} *)

val summary : t -> string
(** Human-readable tables: spans aggregated by name (count, total,
    mean), counters, histogram quantiles. *)

val chrome_trace : ?process_name:string -> t -> string
(** Chrome trace-event JSON: one ["X"] (complete) event per span kept
    ({!spans}) with microsecond [ts]/[dur], plus the counters under
    ["otherData"] and {!spans_dropped} as top-level metadata
    ["spans_dropped"].
    Loadable in [chrome://tracing] / Perfetto. *)

val write_chrome_trace : ?process_name:string -> string -> t -> unit
(** [write_chrome_trace file t] writes {!chrome_trace} to [file]. *)

val prometheus : ?namespace:string -> t -> string
(** Prometheus text exposition (version 0.0.4) of the collector:
    counters as [<ns>_<name>_total], registered gauges as
    [<ns>_<name>] (sampled at export), histograms as cumulative
    [<ns>_<name>_seconds] bucket series ([le] upper bounds in seconds,
    from the log-2 buckets) with [_sum]/[_count], and spans aggregated
    by name into [<ns>_span_total{span=...}] /
    [<ns>_span_seconds_total{span=...}] counter pairs. Metric names are
    sanitized to [[a-zA-Z0-9_:]]; [namespace] defaults to ["kgm"]. *)

val write_prometheus : ?namespace:string -> string -> t -> unit
(** [write_prometheus file t] writes {!prometheus} to [file] via a
    rename, so a concurrent reader never observes a torn snapshot.
    Suitable for periodic re-export during a long chase. *)

(** Minimal JSON values — just enough for the journal to write events
    and read them back without an external dependency. Integers and
    floats are distinct constructors so counters round-trip exactly. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact (single-line) rendering. Non-finite floats print as
      [null]; floats otherwise round-trip through {!of_string}. *)

  val of_string : string -> (t, string) result
  (** Parse one JSON document; trailing garbage is an error. Object key
      order is preserved. *)

  val member : string -> t -> t option
  val to_int : t -> int option
  val to_float : t -> float option
  (** Accepts [Int] too (JSON numbers are one type on the wire). *)

  val to_str : t -> string option
end

(** The chase flight recorder: an append-only JSONL journal of
    structured events from the engine, planner, pool, resilience and
    incremental layers. Each line is one object
    [{"seq":int,"t":seconds,"type":string,...payload}]; the first line
    is a [journal.open] header carrying the schema name and version, so
    a reader can reject recordings it does not understand.

    Emission is serialized by a mutex (worker domains report retries
    and faults), and the {!null} journal makes every call a no-op, so
    instrumented code pays one branch when recording is off. *)
module Journal : sig
  val schema : string
  (** ["kgm-chase-journal"]. *)

  val version : int
  (** Current schema version, stamped into the header event. *)

  type event = {
    ev_seq : int;                         (** 0-based emission order *)
    ev_t : float;                         (** seconds since journal open *)
    ev_type : string;                     (** e.g. ["round.end"] *)
    ev_fields : (string * Json.t) list;   (** payload, order preserved *)
  }

  type t

  val null : t
  (** The disabled journal: {!emit} is a no-op. Default for
      [?journal] arguments. *)

  val create : ?path:string -> unit -> t
  (** An enabled journal; with [path], events are appended to that file
      as JSONL (truncating any previous content). The header event is
      emitted immediately. Without [path] the journal only feeds
      {!tap}s — e.g. the CLI progress line. *)

  val enabled : t -> bool
  (** Guard for call sites that would otherwise build a payload just to
      throw it away. *)

  val emit : t -> string -> (string * Json.t) list -> unit
  (** [emit j type fields] appends one event. Safe from any domain. *)

  val tap : t -> (event -> unit) -> unit
  (** Register a callback run (under the journal lock, in order) for
      every subsequent event. A tap must not {!emit}. *)

  val close : t -> unit
  (** Flush and close the backing file, if any. Idempotent. *)

  (** {1 Reading a recording} *)

  val read_file : string -> (event list, string) result
  (** Parse a JSONL recording, validate the [journal.open] header
      (schema and version), and return all events including the header.
      [Error] describes the first malformed line or header mismatch. *)

  val parse_line : string -> (event, string) result

  val json_of_event : event -> Json.t
  (** The exact object {!emit} would have written. *)

  val field : event -> string -> Json.t option
  val int_field : event -> string -> int option
  val str_field : event -> string -> string option

  val filter :
    ?ev_type:string -> ?since:float -> ?until:float ->
    event list -> event list

  val summarize : event list -> string
  (** Human-readable digest: event counts by type, round count with
      delta min/mean/max, top rules by facts derived. *)
end
