(* kgbench — the kgmodel benchmark. See README.md in this directory for
   the workloads, the metrics and the layer each metric attributes.

     kgbench.exe --workload materialize|serve-read|serve-update
                 --seed N --seconds S --trace 0|1 [--cli PATH]
     kgbench.exe --smoke [--cli PATH]
     kgbench.exe --probe     (one host-speed probe, for Calib.probe)

   A run prints a report line (host block, per-metric spread, layer-sum
   warnings, failures) and, last, one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics of the traced pass with --trace 1.
   Files go to .kgbench/<workload>/ under the working directory. *)

module O = Outcome

let workloads = [ "materialize"; "serve-read"; "serve-update" ]

(* every metric with its unit, as BENCHMARK.json declares them *)
let end_to_end =
  [ ("setup_s", "s"); ("op_norm_p50_ms", "ms"); ("ok_share", "share");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("op.p10_ms", "ms"); ("op.p50_ms", "ms"); ("op.p90_ms", "ms");
    ("calib.probe_ms", "ms"); ("setup.raw_s", "s"); ("materialize.load_s", "s"); ("materialize.reason_s", "s");
    ("materialize.flush_s", "s"); ("materialize.unattributed_s", "s");
    ("engine.rounds", "count"); ("engine.new_facts", "count");
    ("engine.probes", "count"); ("engine.matches", "count");
    ("engine.firings", "count"); ("engine.nulls", "count");
    ("engine.probe_yield", "share"); ("engine.firing_yield", "share");
    ("engine.chase_hit_ratio", "share"); ("engine.top_rule_share", "share");
    ("pool.jobs1_reason_s", "s"); ("pool.gain", "x");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.allocated_mb", "MB"); ("query.eval_us.derived", "us");
    ("query.eval_us.edb", "us"); ("query.examined_per_result", "count");
    ("query.answer_bytes", "B"); ("query.transport_us", "us");
    ("server.requests", "count"); ("server.conns", "count");
    ("server.errors", "count"); ("server.shed", "count");
    ("setup.parse_s", "s"); ("setup.chase_s", "s"); ("setup.ready_s", "s");
    ("setup.unattributed_s", "s"); ("update.parse_ms", "ms");
    ("update.maintain_ms", "ms"); ("update.copy_ms", "ms");
    ("update.index_ms", "ms"); ("update.freeze_ms", "ms");
    ("update.snapshot_ms", "ms"); ("update.unattributed_ms", "ms");
    ("update.alloc_mb", "MB"); ("db.remove_batch_ms", "ms");
    ("maintain.cone", "count"); ("maintain.deleted", "count");
    ("maintain.rederived", "count"); ("maintain.derived", "count");
    ("maintain.agg_groups", "count"); ("maintain.strata", "count");
    ("maintain.fallback_share", "share"); ("loadgen.ops_per_s", "1/s");
    ("loadgen.late_ms", "ms");
    ("loadgen.read_p50_ms", "ms"); ("loadgen.read_p99_ms", "ms");
    ("trace_overhead_pct", "%") ]

type sizes = { mat_n : int; read_facts : int; update_facts : int; setups : int }

let full = { mat_n = 300; read_facts = 1_000_000; update_facts = 100_000; setups = 3 }
let smoke = { mat_n = 60; read_facts = 2_000; update_facts = 2_000; setups = 1 }

let nproc = Domain.recommended_domain_count ()

let run_workload ~cli ~sizes ~workload ~seed ~seconds ~trace =
  let o = O.create () in
  let serve facts =
    { Serve_wl.cli; nproc; seed; seconds; facts; setups = sizes.setups }
  in
  let dir = Filename.concat ".kgbench" workload in
  if not (Sys.file_exists ".kgbench") then Sys.mkdir ".kgbench" 0o755;
  Serve_wl.rm_rf dir;
  Sys.mkdir dir 0o755;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      match workload with
      | "materialize" -> Mat_wl.run { Mat_wl.nproc; seed; seconds; n = sizes.mat_n } ~trace o
      | "serve-read" -> Serve_wl.serve_read (serve sizes.read_facts) ~trace o
      | _ -> Serve_wl.serve_update (serve sizes.update_facts) ~trace o);
  (* a failed run keeps its work directory (server.log) *)
  if o.O.failed = 0 then Serve_wl.rm_rf dir;
  O.metric o "ok_share" "share"
    (1. -. (float_of_int o.failed /. float_of_int (max 1 o.attempted)));
  o

(* ---- output ---- *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let arr xs = "[" ^ String.concat ", " xs ^ "]"

(* the metrics this mode reports, each once with its declared unit;
   per-layer metrics a workload does not exercise read 0 *)
let reported o ~trace =
  List.map
    (fun (name, unit) ->
      let v = List.find_map (fun (n, v, _) -> if n = name then Some v else None) o.O.metrics in
      (name, unit, v))
    (if trace then per_layer else end_to_end)

let report_line o ~workload ~seed ~seconds ~trace =
  let spread =
    List.rev_map
      (fun (name, a) ->
        let q1, _, q3 = Bstats.quartiles_sorted a in
        ( name,
          obj
            [ ("runs", string_of_int (Array.length a));
              ("median", num (Bstats.median_sorted a)); ("q1", num q1);
              ("q3", num q3) ] ))
      o.O.samples
  in
  obj
    [ ("report",
       obj
         [ ("host",
            obj
              [ ("nproc", string_of_int nproc); ("ocaml", str Sys.ocaml_version);
                ("workload", str workload); ("seed", string_of_int seed);
                ("seconds", num seconds); ("trace", string_of_bool trace) ]);
           ("spread", obj spread);
           ("warnings", arr (List.rev_map str o.O.warnings));
           ("failures", arr (List.rev_map str o.O.notes)) ]) ]

let result_line o ~trace =
  let metrics, missing =
    List.partition_map
      (fun (name, unit, v) ->
        match v with
        | Some v -> Left (name, obj [ ("value", num v); ("unit", str unit) ])
        | None when trace -> Left (name, obj [ ("value", "0"); ("unit", str unit) ])
        | None -> Right name)
      (reported o ~trace)
  in
  let correct = o.O.failed = 0 && missing = [] in
  ( correct,
    obj
      [ ("correct", string_of_bool correct); ("attempted", string_of_int (max 1 o.O.attempted));
        ("failed", string_of_int o.O.failed); ("metrics", obj metrics) ] )

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: kgbench.exe --workload W --seed N --seconds S --trace 0|1 [--cli PATH]\n\
    \       kgbench.exe --smoke [--cli PATH]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--probe" ] then begin
    Printf.printf "%.9f\n" (Calib.run_task ());
    exit 0
  end;
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = List.assoc_opt k kv in
  let cli =
    let c = Option.value ~default:"_build/default/bin/kgmodel_cli.exe" (get "cli") in
    if Filename.is_relative c then Filename.concat (Sys.getcwd ()) c else c
  in
  if not (Sys.file_exists cli) then begin
    prerr_endline ("kgbench: no kgmodel CLI at " ^ cli);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if get "smoke" <> None then begin
    (* every workload in both modes at toy sizes: the run must be
       correct and report every metric *)
    let ok = ref true in
    List.iter
      (fun workload ->
        List.iter
          (fun trace ->
            let o =
              run_workload ~cli ~sizes:smoke ~workload ~seed:7 ~seconds:1. ~trace
            in
            let correct, _ = result_line o ~trace in
            Printf.printf "%s trace=%b: correct=%b attempted=%d failed=%d\n%!"
              workload trace correct o.O.attempted o.O.failed;
            if not correct then begin
              ok := false;
              List.iter (Printf.eprintf "  failure: %s\n") o.O.notes
            end)
          [ false; true ])
      workloads;
    exit (if !ok then 0 else 1)
  end;
  let workload =
    match get "workload" with Some w when List.mem w workloads -> w | _ -> usage ()
  in
  let int k d = match get k with Some v -> int_of_string v | None -> d in
  let seed = int "seed" 1 and seconds = float_of_int (int "seconds" 10) in
  let trace = int "trace" 0 = 1 in
  match run_workload ~cli ~sizes:full ~workload ~seed ~seconds ~trace with
  | o ->
      List.iter (Printf.eprintf "kgbench: %s\n") (List.rev o.O.warnings);
      List.iter (Printf.eprintf "kgbench: failure: %s\n") (List.rev o.O.notes);
      print_endline (report_line o ~workload ~seed ~seconds ~trace);
      print_endline (snd (result_line o ~trace))
  | exception e ->
      Printf.eprintf "kgbench: %s failed: %s\n" workload (Printexc.to_string e);
      exit 1
