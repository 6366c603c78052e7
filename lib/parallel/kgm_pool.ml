(** A fixed-size pool of OCaml 5 domains with deterministic, ordered
    results, and its long-running sibling {!Service}.

    Built only on the stdlib multicore primitives ([Domain], [Mutex],
    [Condition], [Atomic]); no external dependencies. Both faces share
    one core: a queue drained by worker domains under one mutex, with a
    stop flag and a stop-and-join.

    The batch pool owns [size - 1] worker domains — the caller's domain
    is the remaining worker: {!run_weighted} drains the queue from the
    submitting domain too. The workers start when a batch first has more
    than one task, so a pool of size 1, or one that only ever runs
    single-task batches, starts none and runs strictly inline, in
    submission order. Results never depend on the pool size: tasks may
    complete in any order, but come back in submission order.

    Tasks must not themselves submit to the same pool (no nested
    submission); the Vadalog engine uses one flat fan-out per fixpoint
    round.

    A task that raises fails the whole batch: the batch still runs to
    completion, then the error of the {e lowest submission index} is
    re-raised — deterministically, regardless of completion schedule —
    wrapped in [Kgm_error] with the worker domain and chunk index in the
    context and the original backtrace preserved. *)

open Kgm_common

(* ------------------------------------------------------------------ *)
(* The core: a queue, its worker domains and their stop-and-join *)

type 'a core = {
  queue : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;  (** signalled when items arrive or at stop *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let core () =
  { queue = Queue.create (); mutex = Mutex.create ();
    nonempty = Condition.create (); stop = false; domains = [] }

(* The one worker loop: pop and [handle] items until the queue is empty,
   then — with [wait] — sleep until more arrive, returning once the core
   stops. A caller helping with its own batch drains without [wait]. *)
let rec drain ~wait core handle =
  Mutex.lock core.mutex;
  if wait then
    while Queue.is_empty core.queue && not core.stop do
      Condition.wait core.nonempty core.mutex
    done;
  match Queue.take_opt core.queue with
  | None -> Mutex.unlock core.mutex
  | Some item ->
      Mutex.unlock core.mutex;
      handle item;
      drain ~wait core handle

let spawn core n handle =
  core.domains <-
    List.init n (fun _ ->
        Domain.spawn (fun () -> drain ~wait:true core handle))

(* enqueue [items] unless the core stopped; one wake-up per item *)
let push core items =
  Mutex.lock core.mutex;
  let admitted = not core.stop in
  if admitted then
    List.iter
      (fun item ->
        Queue.add item core.queue;
        Condition.signal core.nonempty)
      items;
  Mutex.unlock core.mutex;
  admitted

(* stop admission, reclaim whatever was still queued, and join the
   workers (each finishes the item it is handling first) *)
let stop core =
  Mutex.lock core.mutex;
  core.stop <- true;
  let leftover = List.of_seq (Queue.to_seq core.queue) in
  Queue.clear core.queue;
  Condition.broadcast core.nonempty;
  Mutex.unlock core.mutex;
  List.iter Domain.join core.domains;
  core.domains <- [];
  leftover

(* ------------------------------------------------------------------ *)
(* The batch pool *)

type pool = { size : int; tasks : (unit -> unit) core }

let create size = { size = max 1 size; tasks = core () }
let size pool = pool.size
let spawned pool = List.length pool.tasks.domains
let shutdown pool = ignore (stop pool.tasks)

(* A failing worker task is re-raised on the caller's domain as a
   [Kgm_error] locating the failure: the worker domain that ran it and
   the chunk (submission index) it was working on. [Kgm_error]s keep
   their stage and message and gain the context; anything else is
   wrapped as a [Reason] error. The original backtrace is re-attached
   either way, so the failing frame is not lost at the domain hop. *)
let reraise_wrapped ~chunk ~of_ ~worker_id (e, bt) =
  let context =
    [ ("worker", string_of_int worker_id);
      ("chunk", Printf.sprintf "%d/%d" chunk of_) ]
  in
  let wrapped =
    match e with
    | Kgm_error.Error err -> Kgm_error.Error (Kgm_error.with_context context err)
    | e ->
        Kgm_error.Error
          { Kgm_error.stage = Kgm_error.Reason;
            message = "worker exception: " ^ Printexc.to_string e;
            context }
  in
  Printexc.raise_with_backtrace wrapped bt

(* Longest-processing-time-first: starting the heavy tasks early shrinks
   the tail where one straggler runs alone while the other workers idle.
   Pure scheduling — the result list (and the error choice) stays in
   submission order. The caller's domain helps drain the queue, then
   blocks until every task of this batch (including ones stolen by
   workers) has finished. *)
let run_weighted (type a) pool ~weights (thunks : (unit -> a) array) : a list =
  let n = Array.length thunks in
  if Array.length weights <> n then
    invalid_arg "Kgm_pool.run_weighted: weights/thunks length mismatch";
  if n <= 1 || pool.size = 1 || pool.tasks.stop then
    (* inline: no synchronization, strict submission order — but the
       same error contract as the parallel path *)
    Array.to_list
      (Array.mapi
         (fun i f ->
           try f ()
           with e ->
             reraise_wrapped ~chunk:i ~of_:n
               ~worker_id:(Domain.self () :> int)
               (e, Printexc.get_raw_backtrace ()))
         thunks)
  else begin
    if pool.tasks.domains = [] then
      spawn pool.tasks (pool.size - 1) (fun task -> task ());
    let results : a option array = Array.make n None in
    (* per-task error slots: the batch always runs to completion and the
       lowest-index error wins, so which worker failed first (a race)
       never changes what the caller observes *)
    let errors : ((exn * Printexc.raw_backtrace) * int) option array =
      Array.make n None
    in
    let remaining = Atomic.make n in
    let finished = Condition.create () in
    let core = pool.tasks in
    let task i () =
      (try results.(i) <- Some (thunks.(i) ())
       with e ->
         errors.(i) <-
           Some
             ( (e, Printexc.get_raw_backtrace ()),
               (Domain.self () :> int) ));
      Mutex.lock core.mutex;
      if Atomic.fetch_and_add remaining (-1) = 1 then
        Condition.broadcast finished;
      Mutex.unlock core.mutex
    in
    let heaviest_first =
      List.stable_sort
        (fun i j -> Int.compare weights.(j) weights.(i))
        (List.init n Fun.id)
    in
    ignore (push core (List.map task heaviest_first));
    drain ~wait:false core (fun task -> task ());
    Mutex.lock core.mutex;
    while Atomic.get remaining > 0 do
      Condition.wait finished core.mutex
    done;
    Mutex.unlock core.mutex;
    Array.iteri
      (fun i slot ->
        match slot with
        | Some (err, worker_id) -> reraise_wrapped ~chunk:i ~of_:n ~worker_id err
        | None -> ())
      errors;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

let chunk_size_for pool ~len =
  (* about four chunks per worker: enough slack for load balancing,
     few enough that per-chunk overhead stays negligible *)
  max 1 ((len + (4 * pool.size) - 1) / (4 * pool.size))

(* ------------------------------------------------------------------ *)

(* A service is the long-running face of the core: instead of a batch
   with ordered results, items stream in through {!Service.submit} and
   are consumed by dedicated worker domains for their side effects (the
   reasoning server feeds accepted connections through one). No
   ordering or result contract — a service is a sink. A handler that
   raises does not kill its domain: the exception goes to [on_error]
   (default: swallowed) and the worker moves on. *)
module Service = struct
  type 'a t = 'a core

  let create ~domains ?(on_error = fun _ -> ()) handler =
    let svc = core () in
    spawn svc (max 1 domains) (fun item ->
        try handler item with e -> (try on_error e with _ -> ()));
    svc

  let submit svc item = push svc [ item ]

  let pending svc =
    Mutex.lock svc.mutex;
    let n = Queue.length svc.queue in
    Mutex.unlock svc.mutex;
    n

  let shutdown = stop
end
