(* The host-speed probe behind every bounded timing.

   The benchmark runs on a few cores of a shared host whose other
   tenants slow the cores down by up to 1.8x, for tens of seconds at a
   time, with no CPU steal to show for it: on the 2-vCPU host, a chase
   of the same input took 460 ms in one run and 850 ms in a run a
   minute later. In fifteen 20 s windows of back-to-back chases, the
   windows' medians spread by an IQR of 0.31 of their median, and their
   10th percentiles by 0.25.

   A fixed task that does not depend on the program slows down with the
   host: a hash table of 200 000 entries (about 14 MB) built and then
   probed. So the runs alternate the workload's operations with this
   probe, and each operation is scaled by [nominal_s] / (the median of
   the probes around it, [normalize]): its time on a host where the
   probe takes [nominal_s]. Over five materialize runs whose raw median
   spread by an IQR of 0.22 of its median, the scaled median spread by
   0.06 (README, "Choices and limits", also for why the probe runs on
   one domain). The probe is part of the benchmark, so a change to the
   program cannot move it; the raw times and the probe's own time are
   reported per layer. *)

let now = Kgm_telemetry.Clock.now

(* about the probe's time on the 2-vCPU host the benchmark was tuned on,
   when other tenants were quiet *)
let nominal_s = 0.080

let task () =
  let n = 200_000 in
  let rng = Random.State.make [| 0x6b67 |] in
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (Random.State.bits rng) [| i; i + 1 |]
  done;
  (* the same key sequence again: every other key was inserted *)
  let rng = Random.State.make [| 0x6b67 |] in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    let k = if i land 1 = 0 then Random.State.bits rng else -1 - i in
    if Hashtbl.mem h k then incr hits
  done;
  !hits

(* the probe in this process: [task]'s wall time, in seconds *)
let run_task () =
  let t0 = now () in
  ignore (Sys.opaque_identity (task ()));
  now () -. t0

(* One probe, in seconds: [task] timed in a child process of this
   executable ([kgbench.exe --probe]), so neither the program's heap nor
   its domains are on the probe's clock. *)
let probe () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--probe" |] in
  let line = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> float_of_string (String.trim line)
  | _ -> failwith "the host-speed probe failed"

(* a time at the probe's nominal speed, by the median of the probes
   taken around it *)
let at_nominal probes t = t *. nominal_s /. Bstats.median probes

(* Load blocks for load-generator threads: the main thread runs a probe,
   opens block b (1, 2, ...) for a while, closes it, waits for the
   operations in flight and probes again. An operation belongs to the
   block it entered; block b lies between probes b - 1 and b. *)
type gate = {
  m : Mutex.t;
  c : Condition.t;
  mutable phase : int;  (** open block, 0 while closed, -1 when done *)
  mutable busy : int;  (** operations in flight *)
}

let gate () = { m = Mutex.create (); c = Condition.create (); phase = 0; busy = 0 }

let locked g f =
  Mutex.lock g.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.m) f

(* a load thread's next operation: the block it belongs to, or -1 when
   the run is over; a block > 0 must be followed by [leave] *)
let enter g =
  locked g (fun () ->
      while g.phase = 0 do
        Condition.wait g.c g.m
      done;
      if g.phase > 0 then g.busy <- g.busy + 1;
      g.phase)

let leave g =
  locked g (fun () ->
      g.busy <- g.busy - 1;
      if g.busy = 0 then Condition.broadcast g.c)

let set_phase g p =
  locked g (fun () ->
      g.phase <- p;
      Condition.broadcast g.c)

let close_block g =
  locked g (fun () ->
      g.phase <- 0;
      while g.busy > 0 do
        Condition.wait g.c g.m
      done)

(* Probes and blocks of [block_s] until [until] (at least one block);
   returns the probes, probe b closing block b. The load threads' [enter]
   returns -1 once it is done. *)
let drive g ~block_s ~until =
  let probes = ref [ probe () ] and b = ref 0 in
  while !b = 0 || now () < until do
    incr b;
    set_phase g !b;
    Unix.sleepf block_s;
    close_block g;
    probes := probe () :: !probes
  done;
  set_phase g (-1);
  Array.of_list (List.rev !probes)

(* An operation of block b at the probe's nominal speed. Block b lies
   between probes b - 1 and b; one more probe on each side goes into the
   median, which damps a single probe's noise: over five serve-read runs
   on a busy host, the scaled median spread by 0.079 with the two probes
   alone and by 0.058 with four. *)
let normalize probes ~block t =
  let lo = max 0 (block - 2) and hi = min (Array.length probes - 1) (block + 1) in
  at_nominal (Array.to_list (Array.sub probes lo (hi - lo + 1))) t
