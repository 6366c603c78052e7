(* What one run of a workload produced: operations attempted and
   failed (with the first failure messages), the reported metrics and,
   for the host/spread block, the samples behind each of them. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** newest first, capped *)
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
  mutable samples : (string * float array) list;
      (** per metric: this run's samples in its unit, sorted *)
  mutable warnings : string list;  (** printed, not failed (layer sums) *)
}

let create () =
  { attempted = 0; failed = 0; notes = []; metrics = []; samples = [];
    warnings = [] }

let attempt o n = o.attempted <- o.attempted + n

let fail o fmt =
  Printf.ksprintf
    (fun s ->
      o.failed <- o.failed + 1;
      if List.length o.notes < 20 then o.notes <- s :: o.notes)
    fmt

(* a check that is not an operation of the workload, e.g. a final
   oracle comparison: attempted and failed together *)
let check o ok fmt =
  Printf.ksprintf
    (fun s ->
      attempt o 1;
      if not ok then fail o "%s" s)
    fmt

let warn o fmt = Printf.ksprintf (fun s -> o.warnings <- s :: o.warnings) fmt

(* [samples] (in the metric's unit) feed the run's spread block *)
let metric ?samples o name unit v =
  o.metrics <- (name, v, unit) :: o.metrics;
  match samples with
  | Some a ->
      let a = Array.copy a in
      Array.sort Float.compare a;
      o.samples <- (name, a) :: o.samples
  | None -> ()

(* The primary operation's latencies, in seconds: [norm] scaled to the
   probe's nominal host speed (Calib), [raw] as timed. The bounded
   figure is the median of [norm]. Over five runs of each workload the
   scaled median spread least overall (README, "Choices and limits"):
   the lower quantiles of serve-update follow which of its two
   per-process latency modes the run's servers landed in. The raw 10th,
   50th and 90th percentiles are reported beside it, unbounded. *)
let op_latency o ~raw ~norm =
  let ms a = Array.map (fun s -> 1e3 *. s) a in
  let norm = Bstats.sorted (Array.to_list norm) and raw = Bstats.sorted (Array.to_list raw) in
  metric o "op_norm_p50_ms" "ms" ~samples:(ms norm) (1e3 *. Bstats.median_sorted norm);
  metric o "op.p10_ms" "ms" (1e3 *. Bstats.pct raw 0.10);
  metric o "op.p50_ms" "ms" ~samples:(ms raw) (1e3 *. Bstats.median_sorted raw);
  metric o "op.p90_ms" "ms" (1e3 *. Bstats.pct raw 0.90)

(* the run's probes (Calib): how fast the host was *)
let probes o a =
  metric o "calib.probe_ms" "ms" ~samples:(Array.map (fun s -> 1e3 *. s) a)
    (1e3 *. Bstats.median (Array.to_list a))

(* merge the counts of a sub-outcome (one load-generator thread) *)
let absorb o sub =
  o.attempted <- o.attempted + sub.attempted;
  o.failed <- o.failed + sub.failed;
  o.notes <- sub.notes @ o.notes
