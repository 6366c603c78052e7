(** Kgm_resilience — deadlines, cooperative cancellation, fault
    injection, retry, and versioned snapshot IO.

    The paper's production chases run for hours (Sec. 6: ~160 min of
    reasoning on the company KG); this module provides the machinery
    that makes such runs survivable: a cancellation {!Token} the engine
    polls at round boundaries and inside pool workers, a seeded
    {!Faults} harness that proves the failure paths work, bounded
    {!Retry} for transient faults, and the atomic, digest-checked
    {!Snapshot} files that carry the engine's checkpoint/resume
    protocol. *)

exception Interrupted of [ `Cancelled | `Deadline ]
(** Raised by {!Token.check}. Never raised when the token is {!Token.none}. *)

exception Fault of string
(** An injected failure at the named site (see {!Faults}). Transient by
    convention: callers that expect it retry via {!Retry.with_backoff};
    callers that don't treat it as a crash. *)

(** {1 Cancellation and deadlines} *)

module Token : sig
  type t
  (** A cooperative cancellation token, safe to trip from a signal
      handler or another domain and to poll from pool workers. *)

  val create : ?deadline_s:float -> unit -> t
  (** [create ~deadline_s ()] trips [deadline_s] seconds of monotonic
      time after creation (wall-clock adjustments never fire it). *)

  val none : t
  (** A token that never trips — the default for [?cancel] arguments. *)

  val cancel : t -> unit
  (** Trip the token (idempotent). *)

  val cancelled : t -> bool
  (** [true] once {!cancel} was called (deadline expiry not included). *)

  val deadline_exceeded : t -> bool

  val remaining_s : t -> float option
  (** Monotonic seconds until the deadline trips, clamped at 0; [None]
      when the token carries no deadline. Lets derived work (retries,
      sub-requests) bound itself by the budget of the request that
      issued it. *)

  val status : t -> [ `Ok | `Cancelled | `Deadline ]
  (** Cancellation wins over deadline expiry when both hold. *)

  val check : t -> unit
  (** Raise {!Interrupted} unless {!status} is [`Ok]. *)
end

(** {1 Fault injection}

    A process-wide registry of named fault sites, each with an
    injection rate in [0, 1]. The engine and its IO layers call
    {!Faults.inject} at the registered sites:

    - ["worker"]           : pool worker body (engine match phase);
    - ["db_insert"]        : {!Kgm_vadalog.Database.add};
    - ["checkpoint_write"] : {!Snapshot.save};
    - ["source_read"]      : CSV source loading;
    - ["round"]            : chase round boundary (a crash site: the
                             engine does not retry it).

    Draws are deterministic given the seed, the site name and the
    per-site draw index, so a seeded test run injects a reproducible
    number of faults. With no configuration (the default), {!Faults.inject}
    costs one mutable read and never raises. *)

module Faults : sig
  val configure : string -> unit
  (** Parse a spec of the form ["site:rate,site:rate,seed=N"], e.g.
      ["worker:0.05,seed=42"]. Raises [Kgm_error.Error] ([Validate]) on
      a malformed spec. *)

  val configure_from_env : unit -> bool
  (** [configure] from [KGM_FAULTS] when set and non-empty; returns
      whether anything was configured. *)

  val reset : unit -> unit
  (** Drop every site and the seed; {!active} becomes [false]. *)

  val set_rate : string -> float -> unit
  (** Register one site programmatically (rate clamped to [0, 1]). *)

  val with_spec : string -> (unit -> 'a) -> 'a
  (** [with_spec spec f] runs [f] with only [spec] configured, then puts
      back the previous configuration, draw counters included, whether
      [f] returns or raises. A test can arm its own faults this way
      inside a suite running under [KGM_FAULTS] without restarting the
      suite's draw stream. *)

  val active : unit -> bool

  val inject : string -> unit
  (** Draw at the named site; raises {!Fault} when the draw fails.
      No-op for unregistered sites or when nothing is configured. *)

  val site_count : string -> int
  (** Faults injected at the site so far. *)

  val total_injected : unit -> int

  val sites : unit -> (string * float) list
  (** Registered (site, rate) pairs, sorted. *)
end

(** {1 Retry} *)

module Retry : sig
  val with_backoff :
    ?attempts:int ->
    ?base_s:float ->
    ?max_s:float ->
    ?jitter:bool ->
    ?cancel:Token.t ->
    ?retry_on:(exn -> bool) ->
    ?on_retry:(attempt:int -> exn -> unit) ->
    (unit -> 'a) ->
    'a
  (** [with_backoff f] runs [f], retrying up to [attempts] times (total,
      default 3) when it raises an exception accepted by [retry_on]
      (default: {!Fault} only). The last exception propagates unchanged;
      exceptions rejected by [retry_on] propagate immediately.

      Sleeps between attempts use decorrelated jitter (each delay
      uniform in [[base_s, 3 * previous]], drawn from a deterministic
      process-local stream) so retriers that failed together do not
      re-collide in lockstep; [jitter:false] restores classic
      exponential [base_s * 2^k]. Every delay is capped at [max_s]
      (default 0.5 s).

      [cancel] bounds the whole retry loop by the issuing request: a
      token that is already cancelled or past its deadline suppresses
      further retries (the current exception propagates), and each
      sleep is truncated to {!Token.remaining_s} so a retry can never
      outlive the request's budget. *)
end

(** {1 Snapshots} *)

module Snapshot : sig
  (** Versioned on-disk blobs: a 4-line ASCII header (magic, kind,
      version, payload digest) followed by a [Marshal] payload. Writes
      are atomic (temp file + rename), so a crash mid-write never
      clobbers the previous snapshot; loads verify magic, kind, version
      and digest and raise a [Storage] error on any mismatch — a torn
      snapshot is a clean error, not undefined behavior.

      Marshal payloads are not portable across OCaml versions or
      architectures; snapshots are recovery state, not an interchange
      format. *)

  val path : dir:string -> kind:string -> seq:int -> string
  (** [dir/kind-SEQ.snap] (6-digit zero-padded sequence). *)

  val list : dir:string -> kind:string -> (int * string) list
  (** Snapshots of the kind in [dir], sorted by sequence number;
      [[]] when [dir] does not exist. *)

  val latest : dir:string -> kind:string -> string option

  val save : kind:string -> version:int -> path:string -> 'a -> unit
  (** Atomic write; creates [dir] if missing (one level). Calls
      {!Faults.inject}["checkpoint_write"] first, so an injected fault
      leaves the previous snapshot intact. Raises [Sys_error] on IO
      failure. *)

  val save_with :
    kind:string -> version:int -> path:string -> (out_channel -> unit) -> unit
  (** {!save} of a body the callback writes to the channel, e.g. one
      [Marshal] value per chunk: the body streams to the temp file and
      its digest is read back from it, so the write holds neither the
      payload nor its image in memory. {!save} is [save_with] of one
      marshalled value. *)

  val load : kind:string -> version:int -> path:string -> 'a
  (** The caller asserts the payload type, as with [Marshal]; the
      kind/version/digest checks are the guard rails. Raises
      [Kgm_error.Error] ([Storage]) on a missing, foreign, corrupt or
      version-mismatched file. *)

  val load_with :
    kind:string -> version:int -> path:string -> (in_channel -> 'a) -> 'a
  (** {!load} of a body the callback reads from the channel (positioned
      at its start), once the header checks and the digest passed —
      the reader of a {!save_with} body. *)

  val gc : dir:string -> kind:string -> keep:int -> string list
  (** Delete all but the newest [keep] generations of the kind in
      [dir] ([keep] clamped to >= 1, so the generation a recovery
      would resume from survives); returns the paths removed. Call
      right after a successful {!save} — rotation then never races the
      write, and the newest retained file is always a complete,
      digest-valid snapshot. Files that cannot be removed are skipped
      silently (a reader may have the directory open). *)
end

(** {1 Framed logs} *)

module Framed : sig
  (** Append-only files of framed records, the incremental companion of
      a {!Snapshot}: a snapshot is a base, a log holds what happened
      after it. Each record carries a sequence number, its length and
      digests of its header and payload, and is flushed as it is
      written (no fsync, like {!Snapshot.save}).

      Reading tolerates exactly what a crash mid-append leaves behind: a
      {e torn last record} (short, or failing a digest at the end of the
      file) is dropped. A record failing a check anywhere before the
      tail is corruption and fails the whole read. *)

  type writer

  val create : path:string -> writer
  (** Start an empty log (truncating any file there); creates [dir] if
      missing (one level). *)

  val writer_path : writer -> string
  val close : writer -> unit

  val append : writer -> seq:int -> string -> int
  (** Write and flush one record; returns the bytes written. Calls
      {!Faults.inject}["checkpoint_write"] first, so an injected fault
      writes nothing. A writer that raised may have left a partial
      record: append nothing more to that file. *)

  val read : path:string -> (int * string) list
  (** The complete records, in file order, as [(seq, payload)]; [[]]
      for a missing file. Raises [Kgm_error.Error] ([Storage]) when a
      record before the tail fails its header or payload digest. *)
end
