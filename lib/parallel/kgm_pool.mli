(** Fixed-size domain pool with deterministic, ordered results, and a
    service pool of dedicated reader domains — two faces of one core
    (a queue drained by worker domains, a stop flag, a stop-and-join).

    Stdlib-only ([Domain] / [Mutex] / [Condition] / [Atomic]). A batch
    pool of size [n] uses the caller's domain plus [n - 1] worker
    domains, started when a batch first has more than one task: a pool
    of size 1, or one whose batches all hold a single task, starts none
    and runs every task inline. Results are {e identical} for every pool
    size — tasks may finish in any order but are always returned in
    submission order.

    Tasks must be independent (no nested submission to the same pool).
    If a task raises, the batch still runs to completion and the
    exception of the {e lowest submission index} is re-raised from
    {!run_weighted} on the caller's domain — deterministically, whatever
    the completion schedule — as a [Kgm_common.Kgm_error.Error] carrying
    the worker domain id and the failing chunk in its context
    ([Kgm_error]s keep their stage and message and gain the context;
    other exceptions are wrapped as [Reason] errors). The original
    backtrace is preserved across the domain hop. The inline path
    follows the same error contract. *)

type pool

val create : int -> pool
(** [create n] makes a pool of [max 1 n]; it starts no domain yet. *)

val size : pool -> int

val spawned : pool -> int
(** The worker domains running now: 0 until a batch first has more
    than one task (always 0 at size 1), [size - 1] from then on, 0
    again after {!shutdown}. *)

val shutdown : pool -> unit
(** Stops and joins the workers. The pool must be idle. Idempotent;
    later batches run inline. *)

val run_weighted : pool -> weights:int array -> (unit -> 'a) array -> 'a list
(** Execute every thunk (concurrently when the batch has more than one
    task and the pool more than one domain) and return the results in
    submission order. Tasks enter the shared queue heaviest-first
    ([weights.(i)] descending, submission index breaking ties), so
    long-running tasks start early instead of serializing the batch
    tail. Pure scheduling: for independent tasks the results and the
    error contract do not depend on the weights. The inline path
    ignores the weights and runs in submission order. Raises
    [Invalid_argument] when the arrays' lengths differ. *)

val chunk_size_for : pool -> len:int -> int
(** A reasonable chunk size for [len] work items on this pool (about
    four chunks per worker). *)

(** A fixed-size pool of {e dedicated} worker domains consuming a
    stream of items for their side effects. Where {!run_weighted} is a
    batch with submission-ordered results, a service is a sink: items
    enter through {!Service.submit} in any order, are handled
    concurrently, and produce no result. The reasoning server layers its
    request readers on one (each request answers against an immutable
    epoch snapshot, so the handlers need no shared locks).

    A handler that raises does not kill its domain: the exception is
    passed to [on_error] (swallowed by default) and the worker moves
    on. Every domain is started at {!Service.create} and joined at
    {!Service.shutdown}; the caller's domain never helps, so a service
    of [n] domains really owns [n]. *)
module Service : sig
  type 'a t

  val create :
    domains:int -> ?on_error:(exn -> unit) -> ('a -> unit) -> 'a t
  (** [create ~domains handler] starts [max 1 domains] worker domains,
      each looping [handler] over submitted items. *)

  val submit : 'a t -> 'a -> bool
  (** Enqueue an item; [false] after {!shutdown} began (the item was
      {e not} enqueued — the caller still owns it). The queue is
      unbounded: admission control is the caller's policy, via
      {!pending}. *)

  val pending : 'a t -> int
  (** Items queued and not yet picked up by a worker (excludes items
      currently being handled). *)

  val shutdown : 'a t -> 'a list
  (** Stop admission, join every worker (each finishes the item it is
      handling), and return the items never picked up — the caller
      decides their fate (the server sheds them with [503]). *)
end
