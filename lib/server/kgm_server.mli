(** Kgm_server — the long-lived reasoning daemon behind
    [kgmodel serve].

    The paper's production deployments keep a materialized KG resident
    and query it while extensional updates stream in (Sec. 6); this
    module is that serving layer. A server owns one
    {!Kgm_vadalog.Incremental.state} (the {e master} materialization)
    and publishes read-only {e epochs} of it. Two physical stores take
    turns: {!Kgm_vadalog.Incremental.maintain} repairs the master while
    readers answer from its frozen twin; publishing freezes the master
    and swaps it into an [Atomic.t], then replays the master's change
    log onto the retired store once its readers are done, and that
    store becomes the next master — every step from batch to visible
    epoch costs O(batch). Readers grab the current epoch with one
    atomic load and pin it while they evaluate — they never block on a
    writer, never observe a half-applied batch, and each request is
    answered against exactly one epoch (stamped into the [x-kgm-epoch]
    response header).

    The wire protocol is minimal HTTP/1.1 over a Unix-domain socket
    with {e persistent connections}: responses default to
    [connection: keep-alive], clients may pipeline (bytes past one
    request's [content-length] are carried into the next read), and a
    connection is closed only on client demand ([connection: close]),
    idle timeout, per-connection request cap, or drain. Answers are
    held until the connection would wait for input, holds 64 KiB or
    closes, so a pipelined window that arrives in one read is answered
    with one [write(2)] ({!stats} [st_writes]). Enough for
    [curl --unix-socket], the bundled {!Client}, and the CI chaos
    harness, with no external dependency.

    Requests are served by a pool of {e reader domains}
    ({!Kgm_pool.Service}) rather than systhreads: every request
    answers against one immutable frozen epoch (plus a per-epoch
    side-car index cache for query patterns first seen after publish),
    so readers share no locks and scale across cores. Writer paths
    ([/update]) still serialize on the master session's mutex.

    {2 Failure model}

    - {e Admission control}: accepted connections enter a bounded
      queue; when it is full the server answers [503 overloaded]
      immediately instead of queueing unboundedly — load is shed at
      the door, latency stays bounded, and a client can tell
      "busy" from "broken".
    - {e Deadlines}: each request runs under a
      {!Kgm_resilience.Token} (from the [x-kgm-deadline] header or
      the configured default); long scans poll it and answer
      [504 deadline] when it trips.
    - {e Graceful drain}: {!drain} (wired to SIGINT/SIGTERM by the
      CLI, safe to call from a signal handler) stops admission,
      cancels or finishes in-flight work, sheds the queue with
      [503 draining], writes a final base snapshot and lets
      {!run_until_drained} return — exit 0, state on disk.
    - {e Persistence}: a session {e generation} is a base snapshot
      ({!save_session}) plus an append-only log of the batches applied
      after it. Every batch is appended — epoch, length, digest — and
      flushed before it is acknowledged and before its epoch is
      published. A new base is written at start, at drain, after a
      failed append, and once the log outgrows its base.
    - {e Crash recovery}: {!recover} restarts from the newest base whose
      digest and program fingerprint check out plus its log's complete
      records, falling back generation by generation past corrupt or
      foreign files; {!save_session} rotates generations with
      {!Kgm_resilience.Snapshot.gc} so the directory stays bounded
      without ever deleting the generation recovery needs.
    - {e Fault injection}: the ["accept"], ["request"], ["swap"] and
      ["drain"] {!Kgm_resilience.Faults} sites let a seeded chaos run
      prove each path: dropped connections, failing requests
      ([500 fault injected]), epoch swaps that need their retry loop,
      and faults during drain that are absorbed (drain {e always}
      completes).

    An epoch swap that exhausts its retries leaves the master updated
    (and the batch logged) but the previous epoch visible; readers
    simply keep answering against the older consistent snapshot until
    the next successful swap publishes everything since. *)

(** Update batches — the shared text format of [kgmodel serve]'s
    [POST /update] and [kgmodel reason --update]. One fact per line;
    [+fact.] inserts, [-fact.] retracts, a bare [fact.] inserts;
    blank lines and [%] comments are skipped. *)
module Batch : sig
  type sign = [ `Ins | `Ret ]

  val parse :
    string -> (sign * (string * Kgm_vadalog.Database.fact)) list
  (** Parse a whole batch, in line order. Raises [Kgm_error.Error]
      ([Validate], with the 1-based line in context) on a line that is
      not a ground fact. *)

  val split :
    (sign * (string * Kgm_vadalog.Database.fact)) list ->
    (string * Kgm_vadalog.Database.fact) list
    * (string * Kgm_vadalog.Database.fact) list
  (** [(inserts, retracts)], each in batch order. *)
end

(** {1 Configuration} *)

type config = {
  sock : string;          (** Unix-domain socket path (unlinked on bind
                              and again on drain) *)
  workers : int;          (** reader domains (clamped >= 1) *)
  queue_capacity : int;   (** admission queue bound; beyond it requests
                              are shed with [503 overloaded] *)
  default_deadline_s : float option;
                          (** per-request deadline when the client sends
                              no [x-kgm-deadline] header *)
  io_timeout_s : float;   (** socket read/write timeout — bounds a
                              stalled client's hold on a worker
                              {e mid-request} (slowloris) *)
  idle_timeout_s : float; (** keep-alive idle bound: a connection with
                              no request in flight is closed after this
                              long without bytes *)
  max_requests_per_conn : int;
                          (** requests served on one connection before
                              the server answers [connection: close]
                              (clamped >= 1) — bounds per-connection
                              state and re-balances long-lived clients
                              across readers *)
  state_dir : string option;
                          (** session generations (base snapshots and
                              their batch logs); [None] disables
                              persistence *)
  keep : int;             (** generations retained (>= 1 effective);
                              see {!Kgm_resilience.Snapshot.gc} *)
  debug_endpoints : bool; (** expose [POST /slow] (a cancellable sleep)
                              — for drain/overload tests only *)
}

val default_config : sock:string -> config
(** 4 workers, queue 64, no default deadline, 10 s IO timeout, 5 s
    idle timeout, 100000 requests per connection, no persistence,
    keep 3, debug off. *)

(** {1 Server lifecycle} *)

type t

type stats = {
  st_epoch : int;        (** id of the currently published epoch *)
  st_requests : int;     (** requests served (including failed ones) —
                             on keep-alive connections many per
                             connection *)
  st_writes : int;       (** write(2) calls made to send answers (503s
                             included): a window of pipelined requests
                             that arrived in one read is answered with
                             one, so over pipelined traffic this falls
                             well below [st_requests] *)
  st_conns : int;        (** connections picked up by a reader *)
  st_shed : int;         (** connections answered [503] at admission
                             (overloaded or draining) *)
  st_errors : int;       (** requests that answered 4xx/5xx *)
  st_updates : int;      (** update batches applied *)
  st_queue_depth : int;  (** connections queued right now *)
  st_inflight : int;     (** requests being served right now *)
  st_faults : int;       (** injected faults absorbed by the server *)
}

val create :
  ?telemetry:Kgm_telemetry.t ->
  ?journal:Kgm_telemetry.Journal.t ->
  ?epoch:int ->
  config -> session:Kgm_vadalog.Incremental.state -> t
(** Wrap a chased (or recovered) session. [epoch] seeds the epoch
    counter — pass the recovered epoch so ids keep ascending across
    restarts. When [state_dir] holds a session generation numbered past
    [epoch] (one {!recover} rejected: another program's, an earlier
    format's, a corrupt one), the counter starts past the newest such
    generation instead, so the first base {!start} writes is the
    directory's newest: recovery tries it first, and rotation removes
    the rejected generations in their turn, never that base. Makes the
    initial twin (a {!Kgm_vadalog.Database.copy} of the session's
    store) and starts the session's store recording its writes.
    Registers [server.*] gauges on [telemetry] (sampled at [/metrics]
    export); the write path observes the [server.maintain],
    [server.publish] and [server.persist] histograms there. Creates
    the batch pool of the session's [jobs] that every maintenance pass
    shares ({!Kgm_vadalog.Incremental.maintain}'s [pool]); it starts
    no domain until a batch's rounds fan out. Does not touch the
    network. *)

val tune_runtime_for_serving : unit -> unit
(** Raise the calling domain's minor-heap size to a serving-friendly
    arena (4M words; never shrinks a larger setting). On OCaml 5 every
    minor collection is a stop-the-world rendezvous of all domains, so
    an allocation-heavy request loop on a small minor heap turns into
    multi-millisecond tail latency; a large arena amortizes the
    synchronizations away. On OCaml 5.1 [Gc.set] resizes only the
    calling domain: domains spawned afterwards (the reader domains
    {!start} spawns among them) keep the default arena. {!start} calls
    this; a load-generating client process should call it too. *)

val start : t -> unit
(** Write a base generation (when [state_dir] is set), bind the socket
    and spawn the acceptor thread, the shed thread
    (which answers [503] off the accept path so a slow doomed client
    never stalls accepts) and the reader domain pool. Tunes the
    runtime via {!tune_runtime_for_serving} and ignores [SIGPIPE]
    process-wide, so a client that hangs up early costs an [EPIPE] on
    its own connection instead of killing the process. Raises
    [Unix.Unix_error] if the socket cannot be bound; raises
    [Invalid_argument] if already started. *)

val drain : t -> unit
(** Request a graceful drain (idempotent, async-signal-safe: it only
    flips an atomic flag). The drain itself is performed by
    {!run_until_drained}. *)

val draining : t -> bool

val run_until_drained : t -> stats
(** Block until {!drain} is requested, then: stop admission, unlink
    the socket, cancel in-flight work past the grace of one request,
    shed the queue with [503 draining], join every thread, write a
    final base generation (when [state_dir] is set), stop the
    maintenance pool, and return the final statistics. ["drain"]-site
    faults along the way are absorbed and counted — drain always
    completes. *)

val stats : t -> stats

(** {1 Session persistence} *)

val fingerprint : Kgm_vadalog.Rule.program list -> string
(** Digest identifying the {e rules} of a phase pipeline (inline facts
    are ignored: they are EDB, carried by the snapshot itself). A
    snapshot only restores against the pipeline that produced it. *)

val save_session :
  dir:string -> keep:int -> epoch:int ->
  Kgm_vadalog.Incremental.state -> string
(** Start a generation: snapshot the session's extensional facts as its
    base (kind ["session"], version 4, sequence = [epoch]) with
    atomic-rename and digest protection, then rotate old generations,
    bases and logs together ({!Kgm_resilience.Snapshot.gc} with
    [keep]); returns the base's path. An [epoch] below the newest
    generation already in [dir] raises [Kgm_error.Error] ([Storage],
    naming that generation) before anything is written: rotation keeps
    the highest-numbered generations and would delete the new base.
    Writing the newest generation's epoch again replaces it. The
    batches applied after the
    base go to its log ([session-EPOCH.log], a
    {!Kgm_resilience.Framed} log), which the server starts when it
    writes the base; a base without a log is a generation with no
    batches. The facts stream from the EDB store to the file in
    chunks, so a base write holds neither the EDB as one list nor the
    file's image in memory; a base of an earlier version is rejected
    by {!recover}, naming its version. The derived facts are not
    stored — recovery re-chases, which is what makes the snapshot small
    and the restore verifiable. *)

val recover :
  ?options:Kgm_vadalog.Engine.options ->
  ?telemetry:Kgm_telemetry.t ->
  ?journal:Kgm_telemetry.Journal.t ->
  dir:string -> Kgm_vadalog.Rule.program list ->
  (Kgm_vadalog.Incremental.state * int * string) option
(** Walk the generations in [dir] newest-first; for the first whose
    base loads (magic, kind, version and payload digest all valid),
    matches {!fingerprint} of the given phases {e and} whose log reads
    cleanly, apply the log's complete records with consecutive epochs
    to the base's EDB with {!Kgm_vadalog.Database.apply_batch} (as
    {!Kgm_vadalog.Incremental.maintain} commits a batch), re-chase the
    facts-stripped phases once, and
    return [(session, epoch, base path)] — [epoch] is the last record
    replayed, or the base's. A torn last record is dropped (a crash
    mid-append leaves one); a record failing its digest before the
    tail rejects the generation. Rejected generations are journaled
    ([server.recover.reject]) and skipped; [None] when no generation
    survives. Rejected generations stay on disk: {!create} numbers the
    session past them, and rotation removes them in their turn. The
    restored materialization equals the lost one up to the canonical
    renaming of labeled nulls
    ({!Kgm_vadalog.Incremental.canonical_facts}); null-free workloads
    restore bit-identically. *)

(** {1 Client} *)

(** A blocking HTTP/1.1-over-Unix-socket client for the CLI
    ([kgmodel call]), the tests and the chaos harness. Supports both
    persistent (keep-alive) connections and the classic one-shot
    request. *)
module Client : sig
  type conn
  (** A persistent connection: many requests over one socket
      ({!request_on}). Not thread-safe — one [conn] per client
      thread. *)

  val connect : ?io_timeout_s:float -> string -> conn
  (** Connect to the server socket (default 30 s IO timeout). Raises
      [Unix.Unix_error] when the server is unreachable. *)

  val close : conn -> unit

  val request_on :
    ?deadline_s:float -> ?body:string -> ?close_conn:bool ->
    conn -> meth:string -> path:string -> unit -> int * string
  (** One request/response on a persistent connection. Responses are
      read by their [content-length] frame; bytes past it are carried
      into the next call. [close_conn] sends [connection: close]
      (the connection is unusable afterwards); the server closing
      (drain, request cap) is detected from the response header and
      marks the connection dead. Returns [(status, body)]; raises
      [Failure] on a dead/garbled connection, [Unix.Unix_error] on IO
      errors. *)

  val pipeline :
    ?deadline_s:float -> conn -> meth:string -> path:string ->
    string list -> (int * string) list
  (** HTTP/1.1 pipelining: send one request per body in a single
      write, then read the responses in order. One syscall round per
      batch instead of one per request — the cheapest way to drive the
      server at full throughput from one client. Same failure contract
      as {!request_on}. *)

  val request :
    ?deadline_s:float -> ?body:string -> sock:string ->
    meth:string -> path:string -> unit -> int * string
  (** One request, one connection ([connection: close]) — {!connect} +
      {!request_on} + {!close}. [deadline_s] is forwarded as the
      [x-kgm-deadline] header and bounds the socket IO one second past
      it, so the server's [504] at the deadline is received. Returns
      [(status, body)]. Raises [Unix.Unix_error] when the server is
      unreachable or the IO times out. *)

  val wait_ready : ?attempts:int -> ?delay_s:float -> string -> bool
  (** Poll [GET /ready] on the socket until it answers 200 (true) or
      the attempts run out (false) — the test/CI startup barrier. *)
end
