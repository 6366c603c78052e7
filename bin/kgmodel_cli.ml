(** kgmodel — the KGModel command-line front end.

    Subcommands mirror the framework's software modules (Sec. 2.2):
    - [validate]  : parse and validate a GSL design file (KGSE);
    - [render]    : Γ_SM rendering to DOT or ASCII;
    - [translate] : SSST translation to a target model, printing the
                    schema and its enforcement artifact;
    - [compile]   : MTV compilation of a MetaLog file to Vadalog;
    - [reason]    : run a Vadalog program from a file;
    - [stats]     : EXP-1 synthetic-topology table;
    - [demo]      : end-to-end Algorithm 2 on a synthetic Company KG;
    - [diff]      : model-independent schema evolution diff;
    - [check]     : instance conformance checking;
    - [figures]   : regenerate the paper's figure artifacts;
    - [journal]   : summarize/filter a chase flight recording. *)

open Cmdliner

(* program start, the zero of [serve]'s start-up line *)
let started = Kgm_telemetry.Clock.now ()

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let handle f =
  try f () with
  | Kgm_common.Kgm_error.Error e ->
      Format.eprintf "@[<v>error: %a%a@]@." Kgm_common.Kgm_error.pp e
        Kgm_common.Kgm_error.pp_context e;
      exit 1
  | Kgm_resilience.Fault site ->
      (* an injected, un-absorbed fault (KGM_FAULTS): distinct exit code
         so the fault-injection harness can tell it from real errors *)
      Format.eprintf "error: injected fault at site %S@." site;
      exit 3

(* ------------------------------------------------------------------ *)
(* Observability flags, shared by reason / demo / figures: --metrics
   prints the telemetry summary (and per-rule chase tables where a
   reasoning run is involved); --trace FILE writes Chrome trace-event
   JSON loadable in chrome://tracing or Perfetto. *)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON (chrome://tracing, \
                 Perfetto) of the run to $(docv).")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print per-rule chase metrics and the telemetry summary \
                 after the run.")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Record the chase flight recorder to $(docv) as JSONL \
                 (one event per line: rounds, rule batches, plans, \
                 worker chunks, checkpoints, limits). Summarize later \
                 with $(b,kgmodel journal).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write a Prometheus text-format snapshot of the \
                 telemetry counters and histograms to $(docv): \
                 refreshed at every round boundary during the run \
                 (atomic rename), final state on exit.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Live progress line on stderr: round, delta size, \
                 facts/sec, elapsed time against the deadline.")

let jobs_arg =
  Arg.(value & opt int Kgm_vadalog.Engine.default_jobs
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the reasoner's semi-naive rounds \
                 (default: \\$(b,KGM_JOBS) or 1). Results are identical \
                 for every $(docv).")

let options_for_jobs jobs =
  { Kgm_vadalog.Engine.default_options with Kgm_vadalog.Engine.jobs }

(* ------------------------------------------------------------------ *)
(* Resilience flags, shared by reason / demo: wall-clock deadlines,
   checkpoint/resume, and the on-limit policy. The engine always runs
   under the `Partial policy here so a stopped run can still print its
   partial per-rule table; --on-limit raise (the default) then exits
   non-zero after printing. *)

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget for the reasoning run; on expiry the \
                 run stops at the next round boundary.")

let checkpoint_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Write periodic snapshots of the chase state to $(docv) \
                 (created if missing).")

let checkpoint_every_arg =
  Arg.(value & opt int Kgm_vadalog.Engine.default_checkpoint_every
       & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Snapshot every $(docv) completed rounds.")

let checkpoint_keep_arg =
  Arg.(value & opt int 0
       & info [ "checkpoint-keep" ] ~docv:"K"
           ~doc:"Retain only the newest $(docv) snapshot generations in \
                 --checkpoint-dir, deleting older ones after each \
                 successful write (0 keeps everything). The newest \
                 retained generation is always a complete, digest-valid \
                 snapshot, so --resume never loses its restart point.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Resume from the latest snapshot in --checkpoint-dir; \
                 the result is bit-for-bit the uninterrupted run's.")

let on_limit_arg =
  Arg.(value & opt (enum [ ("raise", `Raise); ("partial", `Partial) ]) `Raise
       & info [ "on-limit" ] ~docv:"POLICY"
           ~doc:"raise: exit non-zero when a budget or deadline stops the \
                 run (after printing partial results); partial: exit 0 \
                 with the partial result tagged INCOMPLETE.")

(* First Ctrl-C cancels cooperatively (the engine stops at a round
   boundary, writing a final checkpoint when enabled); the second kills
   the process. *)
let install_sigint () =
  let tok = Kgm_resilience.Token.create () in
  (try
     Sys.set_signal Sys.sigint
       (Sys.Signal_handle
          (fun _ ->
            if Kgm_resilience.Token.cancelled tok then exit 130
            else begin
              prerr_endline
                "kgmodel: interrupt - stopping at the next round boundary \
                 (Ctrl-C again to kill)";
              Kgm_resilience.Token.cancel tok
            end))
   with Invalid_argument _ -> () (* no signal support on this platform *));
  tok

(* Partial-result epilogue: print the per-rule table (unless --metrics
   already did) and apply the --on-limit exit policy. *)
let report_stopped ~on_limit ~metrics (stats : Kgm_vadalog.Engine.stats) =
  match stats.Kgm_vadalog.Engine.stopped with
  | None -> ()
  | Some l ->
      if not metrics then
        Format.printf "%a" Kgm_vadalog.Engine.pp_rule_table stats;
      Format.printf "%% INCOMPLETE: limited by %s@."
        (Kgm_vadalog.Engine.limit_name l);
      if on_limit = `Raise then begin
        Format.eprintf "error: run stopped on %s (partial results above)@."
          (Kgm_vadalog.Engine.limit_name l);
        exit 2
      end

(* The observability harness of every command with telemetry flags:
   the telemetry collector plus the flight recorder, with the derived
   consumers — live progress line and periodic Prometheus snapshots —
   attached as journal taps. [f] gets the collector and the journal;
   each is a no-op unless some flag asked for it (--progress and
   --metrics-out imply an in-memory journal even without --journal). *)
let with_observability ~trace ~metrics ~journal ~metrics_out ~progress
    ~deadline f =
  let module Journal = Kgm_telemetry.Journal in
  let tele =
    if trace <> None || metrics || metrics_out <> None then
      Kgm_telemetry.create ()
    else Kgm_telemetry.null
  in
  let jr =
    if journal <> None || progress || metrics_out <> None then
      Journal.create ?path:journal ()
    else Journal.null
  in
  if progress then begin
    let t0 = Unix.gettimeofday () in
    let derived = ref 0 in
    Journal.tap jr (fun ev ->
        match ev.Journal.ev_type with
        | "round.end" ->
            let fld k =
              Option.value ~default:0 (Journal.int_field ev k)
            in
            derived := !derived + fld "delta";
            let el = Unix.gettimeofday () -. t0 in
            let rate =
              if el > 0. then float_of_int !derived /. el else 0.
            in
            let budget =
              match deadline with
              | Some d -> Printf.sprintf "%.1fs/%.0fs" el d
              | None -> Printf.sprintf "%.1fs" el
            in
            Printf.eprintf
              "\r\027[Kround %d: delta %d, %d facts, %.0f facts/s, %s%!"
              (fld "round") (fld "delta") (fld "facts") rate budget
        | "run.end" | "maintain.end" -> prerr_newline ()
        | _ -> ())
  end;
  (match metrics_out with
   | Some file ->
       Journal.tap jr (fun ev ->
           if ev.Journal.ev_type = "round.end" then
             try Kgm_telemetry.write_prometheus file tele
             with Sys_error _ -> () (* retried at the final snapshot *))
   | None -> ());
  let r = f tele jr in
  Journal.close jr;
  (match journal with
   | Some file -> Format.printf "%% journal written to %s@." file
   | None -> ());
  (match metrics_out with
   | Some file ->
       (try Kgm_telemetry.write_prometheus file tele
        with Sys_error msg ->
          Kgm_common.Kgm_error.raise_error_ctx Kgm_common.Kgm_error.Storage
            [ ("file", file) ]
            "cannot write metrics: %s" msg);
       Format.printf "%% metrics written to %s@." file
   | None -> ());
  if metrics then print_string (Kgm_telemetry.summary tele);
  (match trace with
   | Some file ->
       (try Kgm_telemetry.write_chrome_trace file tele
        with Sys_error msg ->
          Kgm_common.Kgm_error.raise_error_ctx Kgm_common.Kgm_error.Storage
            [ ("file", file) ]
            "cannot write trace: %s" msg);
       Format.printf "trace written to %s@." file
   | None -> ());
  r

(* ------------------------------------------------------------------ *)

let gsl_file =
  let doc = "GSL design file (textual Graph Schema Language)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let validate_cmd =
  let run file =
    handle (fun () ->
        let s = Kgmodel.Gsl.parse (read_file file) in
        match Kgmodel.Supermodel.validate s with
        | Ok () ->
            Format.printf "%s: valid super-schema@." s.Kgmodel.Supermodel.s_name;
            List.iter
              (fun (k, v) -> Format.printf "  %-28s %d@." k v)
              (Kgmodel.Supermodel.stats s)
        | Error errs ->
            List.iter (Format.printf "invalid: %s@.") errs;
            exit 1)
  in
  Cmd.v (Cmd.info "validate" ~doc:"Parse and validate a GSL design file.")
    Term.(const run $ gsl_file)

let render_cmd =
  let format =
    Arg.(value & opt (enum [ ("dot", `Dot); ("ascii", `Ascii); ("legend", `Legend) ])
           `Dot
         & info [ "format"; "f" ] ~doc:"Output format: dot, ascii or legend.")
  in
  let run file fmt =
    handle (fun () ->
        match fmt with
        | `Legend -> print_string (Kgmodel.Render.grapheme_legend ())
        | `Dot ->
            let s = Kgmodel.Gsl.parse_validated (read_file file) in
            print_string (Kgmodel.Render.to_dot s)
        | `Ascii ->
            let s = Kgmodel.Gsl.parse_validated (read_file file) in
            print_string (Kgmodel.Render.to_ascii s))
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render a GSL diagram with the Γ_SM graphemes.")
    Term.(const run $ gsl_file $ format)

let translate_cmd =
  let target =
    Arg.(value
         & opt (enum [ ("pg", `Pg); ("relational", `Rel); ("rdfs", `Rdfs); ("csv", `Csv) ])
             `Pg
         & info [ "target"; "t" ] ~doc:"Target model: pg, relational, rdfs, csv.")
  in
  let strategy =
    Arg.(value & opt (some string) None
         & info [ "strategy"; "s" ] ~doc:"Implementation strategy (Algorithm 1, line 2).")
  in
  let run file target strategy =
    handle (fun () ->
        let s = Kgmodel.Gsl.parse_validated (read_file file) in
        match target with
        | `Pg ->
            let dict = Kgmodel.Dictionary.create () in
            let sid = Kgmodel.Dictionary.store dict s in
            let mapping = Kgm_targets.Pg_model.mapping ?strategy () in
            let outcome = Kgmodel.Ssst.translate dict mapping sid in
            let schema =
              Kgm_targets.Pg_model.decode dict outcome.Kgmodel.Ssst.target_oid
            in
            Format.printf "%a@." Kgm_targets.Pg_model.pp schema;
            print_string "-- enforcement script --\n";
            print_string (Kgm_targets.Pg_model.enforcement_script schema)
        | `Rel ->
            let dict = Kgmodel.Dictionary.create () in
            let sid = Kgmodel.Dictionary.store dict s in
            let mapping = Kgm_targets.Relational_model.mapping ?strategy () in
            let outcome = Kgmodel.Ssst.translate dict mapping sid in
            let schema =
              Kgm_targets.Relational_model.decode dict outcome.Kgmodel.Ssst.target_oid
            in
            print_string (Kgm_targets.Relational_model.ddl schema)
        | `Rdfs ->
            let schema = Kgm_targets.Triple_model.translate_native s in
            print_string (Kgm_targets.Triple_model.to_rdfs schema)
        | `Csv ->
            let bundle = Kgm_targets.Csv_model.translate_native s in
            print_string bundle.Kgm_targets.Csv_model.manifest)
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:"SSST: translate a super-schema into a target model (Algorithm 1).")
    Term.(const run $ gsl_file $ target $ strategy)

let compile_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"MetaLog source file.")
  in
  let run file =
    handle (fun () ->
        let prog = Kgm_metalog.Mparser.parse_program (read_file file) in
        let { Kgm_metalog.Mtv.program; _ } = Kgm_metalog.Mtv.translate prog in
        print_string (Kgm_vadalog.Rule.program_to_string program))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"MTV: compile MetaLog to Vadalog (Sec. 4).")
    Term.(const run $ file)

let reason_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Vadalog program file (facts inline).")
  in
  let query =
    Arg.(value & opt (some string) None
         & info [ "query"; "q" ] ~doc:"Predicate whose facts to print.")
  in
  let lenient =
    Arg.(value & flag
         & info [ "lenient" ]
             ~doc:"Skip malformed @input rows (wrong arity, unparsable \
                   value) with a warning instead of failing.")
  in
  let explain_plan =
    Arg.(value & flag
         & info [ "explain-plan" ]
             ~doc:"Print the chase plan (strata in execution order, join \
                   order per recursive rule and delta literal) computed \
                   over the loaded input facts, then exit without \
                   running the chase.")
  in
  let explain_fact =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"FACT"
             ~doc:"After the chase, print the derivation tree of $(docv) \
                   (e.g. 'control(a,b)'): the firing rule, the \
                   head-variable substitution, invented nulls and the \
                   premises, recursively down to ground facts. Implies \
                   provenance recording; deterministic across --jobs, \
                   the planner and checkpoint/resume.")
  in
  let explain_depth =
    Arg.(value & opt int Kgm_vadalog.Engine.default_explain_depth
         & info [ "explain-depth" ] ~docv:"N"
             ~doc:"Depth bound for --explain derivation trees (cyclic \
                   ownership graphs are cut here and at back-edges).")
  in
  let no_planner =
    Arg.(value & flag
         & info [ "no-planner" ]
             ~doc:"Disable cost-aware chase planning (stratum-round \
                   skipping, selectivity-ordered joins, delta-side \
                   indexes). Output facts are identical either way; only \
                   probe counts and wall time change.")
  in
  let update =
    Arg.(value & opt_all string []
         & info [ "update" ] ~docv:"FILE"
             ~doc:"After the chase, apply an extensional update batch \
                   and repair the materialization incrementally \
                   (delete-and-rederive). Each non-empty line of FILE \
                   is a fact, optionally prefixed with + (insert, the \
                   default) or - (retract); lines starting with % are \
                   comments. Repeatable: batches are applied in order \
                   through one maintained session; $(docv) - reads a \
                   batch from stdin. Incompatible with checkpointing.")
  in
  let run file query trace metrics jobs deadline ck_dir ck_every ck_keep
      resume on_limit lenient explain_plan no_planner update journal
      metrics_out progress explain_fact explain_depth =
    handle (fun () ->
        with_observability ~trace ~metrics ~journal ~metrics_out ~progress
          ~deadline
        @@ fun tele jr ->
        let cancel = install_sigint () in
        let program = Kgm_vadalog.Parser.parse_program (read_file file) in
        let db = Kgm_vadalog.Database.create () in
        List.iter
          (fun (r : Kgm_vadalog.Io_sources.source_report) ->
            Format.printf "%% @input %s: %d facts%s@."
              r.Kgm_vadalog.Io_sources.sr_pred r.Kgm_vadalog.Io_sources.sr_loaded
              (if r.Kgm_vadalog.Io_sources.sr_skipped > 0 then
                 Printf.sprintf " (%d malformed rows skipped)"
                   r.Kgm_vadalog.Io_sources.sr_skipped
               else "");
            List.iter
              (fun (w : Kgm_vadalog.Io_sources.warning) ->
                Format.eprintf "%% warning: %s line %d: %s@."
                  r.Kgm_vadalog.Io_sources.sr_source
                  w.Kgm_vadalog.Io_sources.w_line
                  w.Kgm_vadalog.Io_sources.w_reason)
              r.Kgm_vadalog.Io_sources.sr_warnings)
          (Kgm_vadalog.Io_sources.load_inputs_report ~lenient program db);
        let options =
          { (options_for_jobs jobs) with
            Kgm_vadalog.Engine.deadline_s = deadline;
            on_limit = `Partial;
            planner = not no_planner;
            provenance = explain_fact <> None }
        in
        if explain_plan then begin
          (* the engine loads inline facts itself; mirror that here so
             the report sees the same cardinalities a run would start
             from *)
          List.iter
            (fun (pred, args) ->
              ignore (Kgm_vadalog.Database.add db pred (Array.of_list args)))
            program.Kgm_vadalog.Rule.facts;
          Kgm_vadalog.Engine.pp_plan_report ~options Format.std_formatter
            program db;
          exit 0
        end;
        let finish db stats =
          Format.printf "%% %d new facts in %d rounds (%.3fs)@."
            stats.Kgm_vadalog.Engine.new_facts stats.Kgm_vadalog.Engine.rounds
            stats.Kgm_vadalog.Engine.elapsed_s;
          if metrics then
            Format.printf "%a" Kgm_vadalog.Engine.pp_rule_table stats;
          (match query with
           | Some pred ->
               List.iter
                 (fun fact ->
                   Format.printf "%s(%s).@." pred
                     (String.concat ", "
                        (Array.to_list
                           (Array.map Kgm_common.Value.to_string fact))))
                 (Kgm_vadalog.Engine.query db pred)
           | None ->
               List.iter
                 (fun pred -> Format.printf "%s: %d facts@." pred
                     (List.length (Kgm_vadalog.Database.facts db pred)))
                 (Kgm_vadalog.Database.predicates db));
          (match explain_fact with
           | None -> ()
           | Some s ->
               let pred, fact =
                 match Kgm_vadalog.Parser.parse_facts s with
                 | Ok [ pf ] -> pf
                 | _ ->
                     Kgm_common.Kgm_error.raise_error_ctx
                       Kgm_common.Kgm_error.Validate
                       [ ("fact", s) ]
                       "--explain expects a single ground fact, e.g. \
                        'control(a,b)'"
               in
               let sup =
                 match stats.Kgm_vadalog.Engine.support with
                 | Some sup -> sup
                 | None ->
                     Kgm_vadalog.Support.create (Kgm_vadalog.Database.dict db)
               in
               if not (Kgm_vadalog.Database.mem db pred fact) then
                 Format.printf "%% not in the database: %s@." (String.trim s);
               print_string
                 (Kgm_vadalog.Engine.explain_tree_to_string
                    (Kgm_vadalog.Engine.explain_tree ~max_depth:explain_depth
                       sup program pred fact)));
          report_stopped ~on_limit ~metrics stats
        in
        match update with
        | [] ->
            let checkpoint =
              Option.map
                (fun dir ->
                  Kgm_vadalog.Engine.checkpoint ~every:ck_every ~keep:ck_keep
                    dir)
                ck_dir
            in
            let resume_from =
              match ck_dir with
              | Some dir when resume ->
                  Kgm_vadalog.Engine.latest_checkpoint dir
              | _ -> None
            in
            (match resume_from with
             | Some p -> Format.printf "%% resuming from %s@." p
             | None -> ());
            let stats =
              Kgm_vadalog.Engine.run ~options ~telemetry:tele ~journal:jr
                ~cancel ?checkpoint ?resume_from program db
            in
            finish db stats
        | ufiles ->
            (* chase with derivation support recorded, then repair —
               every batch flows through the one maintained session,
               parsed by the server's shared batch reader *)
            let read_batch path =
              if path = "-" then In_channel.input_all stdin
              else read_file path
            in
            let st, stats =
              Kgm_vadalog.Incremental.chase ~options ~telemetry:tele
                ~journal:jr ~db program
            in
            Format.printf "%% chase: %d new facts in %d rounds (%.3fs)@."
              stats.Kgm_vadalog.Engine.new_facts
              stats.Kgm_vadalog.Engine.rounds
              stats.Kgm_vadalog.Engine.elapsed_s;
            List.iter
              (fun ufile ->
                let batch = Kgm_server.Batch.parse (read_batch ufile) in
                let inserts, retracts = Kgm_server.Batch.split batch in
                let u =
                  Kgm_vadalog.Incremental.maintain ~telemetry:tele
                    ~journal:jr st ~inserts ~retracts
                in
                Format.printf
                  "%% update %s: +%d -%d; cone %d, deleted %d, rederived \
                   %d, refired %d, derived %d in %d rounds (%.3fs)%s%s%s@."
                  (if ufile = "-" then "<stdin>" else ufile)
                  u.Kgm_vadalog.Incremental.u_inserted
                  u.Kgm_vadalog.Incremental.u_retracted
                  u.Kgm_vadalog.Incremental.u_cone
                  u.Kgm_vadalog.Incremental.u_deleted
                  u.Kgm_vadalog.Incremental.u_rederived
                  u.Kgm_vadalog.Incremental.u_refired
                  u.Kgm_vadalog.Incremental.u_derived
                  u.Kgm_vadalog.Incremental.u_rounds
                  u.Kgm_vadalog.Incremental.u_elapsed_s
                  (if u.Kgm_vadalog.Incremental.u_strata > 0 then
                     Printf.sprintf ", %d strata rederived"
                       u.Kgm_vadalog.Incremental.u_strata
                   else "")
                  (if u.Kgm_vadalog.Incremental.u_agg_groups > 0 then
                     Printf.sprintf ", %d aggregate groups maintained"
                       u.Kgm_vadalog.Incremental.u_agg_groups
                   else "")
                  (if u.Kgm_vadalog.Incremental.u_fallback then
                     " [fallback: full re-chase]"
                   else ""))
              ufiles;
            (* explain against the live support: a fallback re-chase
               replaces the one the first chase recorded *)
            finish (Kgm_vadalog.Incremental.db st)
              { stats with
                Kgm_vadalog.Engine.support =
                  Some (Kgm_vadalog.Incremental.support st) })
  in
  Cmd.v (Cmd.info "reason" ~doc:"Run a Vadalog program.")
    Term.(const run $ file $ query $ trace_arg $ metrics_arg $ jobs_arg
          $ deadline_arg $ checkpoint_dir_arg $ checkpoint_every_arg
          $ checkpoint_keep_arg $ resume_arg $ on_limit_arg $ lenient
          $ explain_plan $ no_planner
          $ update $ journal_arg $ metrics_out_arg $ progress_arg
          $ explain_fact $ explain_depth)

(* ------------------------------------------------------------------ *)
(* serve: the long-lived reasoning daemon. Chase (or recover) once,
   then answer point/pattern/explain queries against immutable frozen
   epochs while update batches repair the master incrementally. *)

let serve_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Vadalog program to serve.")
  in
  let sock =
    Arg.(value & opt string "/tmp/kgmodel.sock"
         & info [ "sock" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on (also reachable with \
                   $(b,curl --unix-socket)).")
  in
  let state_dir =
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Persist the session to $(docv): a base snapshot is \
                   written at startup and at drain, and every update \
                   batch is appended to the base's log before it is \
                   acknowledged. Restart recovers the newest valid base \
                   plus its log (corrupt or foreign generations are \
                   skipped).")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N"
             ~doc:"Reader domains. A reader keeps a keep-alive \
                   connection between its requests only while no other \
                   connection waits for one.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue bound, in connections with a request \
                   to read; beyond it they are shed immediately with 503 \
                   overloaded. A connection accepted at a descriptor past \
                   FD_SETSIZE (1024) is answered 503 and closed.")
  in
  let keep =
    Arg.(value & opt int 3
         & info [ "keep" ] ~docv:"K"
             ~doc:"Session snapshot generations retained in --state-dir.")
  in
  let request_deadline =
    Arg.(value & opt (some float) None
         & info [ "request-deadline" ] ~docv:"SECONDS"
             ~doc:"Default per-request deadline; a client overrides it \
                   with the x-kgm-deadline header. Requests past it \
                   answer 504.")
  in
  let idle_timeout =
    Arg.(value & opt float 5.
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"Close a keep-alive connection after $(docv) with no \
                   request in flight.")
  in
  let debug_endpoints =
    Arg.(value & flag
         & info [ "debug-endpoints" ]
             ~doc:"Expose POST /slow (a cancellable sleep) — for drain \
                   and overload testing only.")
  in
  let run file sock state_dir workers queue keep request_deadline
      idle_timeout debug_endpoints jobs trace metrics journal
      metrics_out =
    handle (fun () ->
        with_observability ~trace ~metrics ~journal ~metrics_out
          ~progress:false ~deadline:None
        @@ fun tele jr ->
        (* the start-up line's parts: consecutive laps from program start,
           so they add up to the time to [serving on] *)
        let parts = ref [] and last = ref started in
        let lap name =
          let t = Kgm_telemetry.Clock.now () in
          parts := (name, t -. !last) :: !parts;
          last := t
        in
        lap "init";
        let program = Kgm_vadalog.Parser.parse_program (read_file file) in
        lap "parse";
        let options =
          { (options_for_jobs jobs) with Kgm_vadalog.Engine.provenance = true }
        in
        let session, epoch, edb_copy =
          match
            Option.bind state_dir (fun dir ->
                Kgm_server.recover ~options ~telemetry:tele ~journal:jr ~dir
                  [ program ])
          with
          | Some (st, ep, path) ->
              Format.printf "%% recovered epoch %d from %s (%d facts)@." ep
                path
                (Kgm_vadalog.Database.total (Kgm_vadalog.Incremental.db st));
              lap "recover";
              (st, ep, "")
          | None ->
              let db = Kgm_vadalog.Database.create () in
              ignore (Kgm_vadalog.Io_sources.load_inputs program db);
              lap "@input";
              let st, stats =
                Kgm_vadalog.Incremental.chase ~options ~telemetry:tele
                  ~journal:jr ~db program
              in
              Format.printf "%% chase: %d new facts in %d rounds (%.3fs)@."
                stats.Kgm_vadalog.Engine.new_facts
                stats.Kgm_vadalog.Engine.rounds
                stats.Kgm_vadalog.Engine.elapsed_s;
              lap "chase";
              ( st, 0,
                Printf.sprintf " (EDB copy %.3fs)"
                  (Kgm_vadalog.Incremental.edb_copy_s st) )
        in
        let cfg =
          { Kgm_server.sock; workers; queue_capacity = queue;
            default_deadline_s = request_deadline; io_timeout_s = 10.;
            idle_timeout_s = idle_timeout;
            state_dir; keep; debug_endpoints }
        in
        let srv =
          Kgm_server.create ~telemetry:tele ~journal:jr ~epoch cfg ~session
        in
        lap "twin copy";
        List.iter
          (fun s ->
            try
              Sys.set_signal s
                (Sys.Signal_handle (fun _ -> Kgm_server.drain srv))
            with Invalid_argument _ -> ())
          [ Sys.sigint; Sys.sigterm ];
        Kgm_server.start srv;
        lap "start";
        Format.printf "%% start-up %.3fs: %s@." (!last -. started)
          (String.concat ", "
             (List.rev_map
                (fun (name, dt) ->
                  Printf.sprintf "%s %.3fs%s" name dt
                    (if name = "chase" then edb_copy else ""))
                !parts));
        Format.printf "%% serving on %s (workers %d, queue %d, epoch %d)@."
          sock workers queue (Kgm_server.stats srv).Kgm_server.st_epoch;
        Format.print_flush ();
        let s = Kgm_server.run_until_drained srv in
        Format.printf
          "%% drained: %d requests (%d shed, %d errors), %d updates, \
           epoch %d, %d faults absorbed@."
          s.Kgm_server.st_requests s.Kgm_server.st_shed s.Kgm_server.st_errors
          s.Kgm_server.st_updates s.Kgm_server.st_epoch
          s.Kgm_server.st_faults)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a materialized Vadalog program over a Unix socket: \
             concurrent queries against frozen epochs, incremental \
             update batches, graceful drain on SIGINT/SIGTERM, crash \
             recovery from --state-dir.")
    Term.(const run $ file $ sock $ state_dir $ workers $ queue $ keep
          $ request_deadline $ idle_timeout
          $ debug_endpoints $ jobs_arg $ trace_arg $ metrics_arg
          $ journal_arg $ metrics_out_arg)

let call_cmd =
  let sock =
    Arg.(value & opt string "/tmp/kgmodel.sock"
         & info [ "sock" ] ~docv:"PATH" ~doc:"Server socket.")
  in
  let meth =
    Arg.(value & opt (some string) None
         & info [ "method"; "X" ] ~docv:"METHOD"
             ~doc:"HTTP method (default: GET, or POST when a body is \
                   given).")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Request deadline, sent as x-kgm-deadline and bounding \
                   the socket IO.")
  in
  let path =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH"
             ~doc:"Endpoint: /health /ready /status /metrics /epoch \
                   /query /explain /update.")
  in
  let body =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"BODY"
             ~doc:"Request body (a query pattern, a fact, or an update \
                   batch); - reads stdin.")
  in
  let repeat =
    Arg.(value & opt int 1
         & info [ "repeat" ] ~docv:"N"
             ~doc:"Send the request $(docv) times per client (over one \
                   kept-alive connection unless --close-per-request) and \
                   report req/s and p50/p99 latency on stderr.")
  in
  let concurrency =
    Arg.(value & opt int 1
         & info [ "concurrency" ] ~docv:"C"
             ~doc:"Closed-loop client threads, each with its own \
                   connection, each sending --repeat requests.")
  in
  let close_per_request =
    Arg.(value & flag
         & info [ "close-per-request" ]
             ~doc:"Open a fresh connection per request (the PR-8 \
                   protocol) — the keep-alive speedup baseline.")
  in
  let run sock meth deadline path body repeat concurrency close_per_request =
    handle (fun () ->
        let body =
          match body with
          | Some "-" -> Some (In_channel.input_all stdin)
          | b -> b
        in
        let meth =
          match meth with
          | Some m -> String.uppercase_ascii m
          | None -> if body = None then "GET" else "POST"
        in
        if repeat <= 1 && concurrency <= 1 && not close_per_request then
          match
            Kgm_server.Client.request ?deadline_s:deadline ?body ~sock ~meth
              ~path ()
          with
          | code, b ->
              print_string b;
              if code >= 400 then begin
                Format.eprintf "error: HTTP %d@." code;
                exit 1
              end
          | exception Unix.Unix_error (e, _, _) ->
              Format.eprintf "error: %s: %s@." sock (Unix.error_message e);
              exit 1
        else begin
          (* closed-loop load: C client threads, R requests each. Every
             answer must be identical — the epochs-are-immutable
             consistency check rides along with the throughput number. *)
          let repeat = max 1 repeat and concurrency = max 1 concurrency in
          Kgm_server.tune_runtime_for_serving ();
          let errors = Atomic.make 0 in
          let results = Array.make concurrency (None, [||]) in
          let one_client i () =
            try
              let lats = Array.make repeat 0. in
              let first = ref None in
              let note code b =
                if code >= 400 then Atomic.incr errors
                else
                  match !first with
                  | None -> first := Some b
                  | Some f -> if not (String.equal f b) then Atomic.incr errors
              in
              if close_per_request then
                for k = 0 to repeat - 1 do
                  let t0 = Unix.gettimeofday () in
                  (match
                     Kgm_server.Client.request ?deadline_s:deadline ?body ~sock
                       ~meth ~path ()
                   with
                  | code, b -> note code b
                  | exception (Unix.Unix_error _ | Failure _) ->
                      Atomic.incr errors);
                  lats.(k) <- Unix.gettimeofday () -. t0
                done
              else begin
                let conn = ref (Kgm_server.Client.connect sock) in
                for k = 0 to repeat - 1 do
                  let t0 = Unix.gettimeofday () in
                  (match
                     Kgm_server.Client.request_on ?deadline_s:deadline ?body
                       !conn ~meth ~path ()
                   with
                  | code, b -> note code b
                  | exception (Unix.Unix_error _ | Failure _) -> (
                      (* the server may close on an idle gap —
                         reconnect once before counting an error *)
                      Kgm_server.Client.close !conn;
                      match
                        conn := Kgm_server.Client.connect sock;
                        Kgm_server.Client.request_on ?deadline_s:deadline ?body
                          !conn ~meth ~path ()
                      with
                      | code, b -> note code b
                      | exception (Unix.Unix_error _ | Failure _) ->
                          Atomic.incr errors));
                  lats.(k) <- Unix.gettimeofday () -. t0
                done;
                Kgm_server.Client.close !conn
              end;
              results.(i) <- (!first, lats)
            with Unix.Unix_error _ | Failure _ ->
              (* a client that cannot even connect must fail the run,
                 not vanish leaving rosy stats behind *)
              Atomic.incr errors
          in
          let t0 = Unix.gettimeofday () in
          let threads =
            List.init concurrency (fun i -> Thread.create (one_client i) ())
          in
          List.iter Thread.join threads;
          let wall = Unix.gettimeofday () -. t0 in
          let bodies = Array.to_list results |> List.filter_map fst in
          (match bodies with
          | b0 :: rest ->
              print_string b0;
              if not (List.for_all (String.equal b0) rest) then begin
                Format.eprintf "error: clients observed different answers@.";
                Atomic.incr errors
              end
          | [] -> ());
          let lats =
            Array.concat (Array.to_list (Array.map snd results))
          in
          Array.sort Float.compare lats;
          let pct p =
            let n = Array.length lats in
            if n = 0 then 0.
            else
              lats.(max 0 (min (n - 1)
                             (int_of_float
                                (Float.round (p /. 100. *. float (n - 1))))))
          in
          let total = repeat * concurrency in
          Format.eprintf
            "%% %d requests, %d clients%s: %.1f req/s, p50 %.3f ms, p99 \
             %.3f ms, %d errors@."
            total concurrency
            (if close_per_request then ", close-per-request" else ", keep-alive")
            (float total /. Float.max 1e-9 wall)
            (pct 50. *. 1e3) (pct 99. *. 1e3) (Atomic.get errors);
          if Atomic.get errors > 0 then exit 1
        end)
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Send one request to a running $(b,kgmodel serve) and print \
             the response body (exit 1 on an HTTP error). With \
             $(b,--repeat)/$(b,--concurrency) it becomes a closed-loop \
             load generator: identical-answer checking, req/s and \
             p50/p99 on stderr.")
    Term.(const run $ sock $ meth $ deadline $ path $ body $ repeat
          $ concurrency $ close_per_request)

let stats_cmd =
  let n =
    Arg.(value & opt int 20_000 & info [ "n" ] ~doc:"Network size (vertices).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.") in
  let run n seed =
    handle (fun () ->
        let o = Kgm_finance.Generator.generate ~seed ~n () in
        let s = Kgm_finance.Fin_stats.compute o.Kgm_finance.Generator.graph in
        Format.printf "%a" Kgm_finance.Fin_stats.pp s)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Topology statistics of a synthetic shareholding graph (Sec. 2.1).")
    Term.(const run $ n $ seed)

let demo_cmd =
  let n =
    Arg.(value & opt int 400 & info [ "n" ] ~doc:"Synthetic network size.")
  in
  let run n trace metrics jobs deadline ck_dir ck_every resume on_limit
      journal metrics_out progress =
    handle (fun () ->
        with_observability ~trace ~metrics ~journal ~metrics_out ~progress
          ~deadline
        @@ fun tele jr ->
        let cancel = install_sigint () in
        let schema = Kgm_finance.Company_schema.load () in
        let dict = Kgmodel.Dictionary.create () in
        let sid = Kgmodel.Dictionary.store dict schema in
        let inst = Kgmodel.Instances.create dict in
        let o = Kgm_finance.Generator.generate ~n () in
        let data = Kgm_finance.Generator.to_company_graph o in
        Format.printf "data: %a@." Kgm_graphdb.Pgraph.pp_summary data;
        let options =
          { (options_for_jobs jobs) with
            Kgm_vadalog.Engine.deadline_s = deadline;
            on_limit = `Partial }
        in
        let report =
          Kgmodel.Materialize.materialize ~options ~telemetry:tele
            ~journal:jr ~cancel ?checkpoint_dir:ck_dir
            ~checkpoint_every:ck_every ~resume ~instances:inst ~schema
            ~schema_oid:sid ~data ~sigma:Kgm_finance.Intensional.full ()
        in
        Format.printf
          "materialized%s: load %.3fs, reason %.3fs, flush %.3fs@."
          (if report.Kgmodel.Materialize.incomplete then " (INCOMPLETE)"
           else "")
          report.Kgmodel.Materialize.load_s report.Kgmodel.Materialize.reason_s
          report.Kgmodel.Materialize.flush_s;
        Format.printf "derived: %d nodes, %d edges, %d attribute values@."
          report.Kgmodel.Materialize.derived_nodes
          report.Kgmodel.Materialize.derived_edges
          report.Kgmodel.Materialize.derived_attrs;
        Format.printf "after: %a@." Kgm_graphdb.Pgraph.pp_summary data;
        if metrics then
          Format.printf "%a" Kgm_vadalog.Engine.pp_rule_table
            report.Kgmodel.Materialize.engine_stats;
        report_stopped ~on_limit ~metrics
          report.Kgmodel.Materialize.engine_stats)
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"End-to-end Algorithm 2 on a synthetic Company KG.")
    Term.(const run $ n $ trace_arg $ metrics_arg $ jobs_arg $ deadline_arg
          $ checkpoint_dir_arg $ checkpoint_every_arg $ resume_arg
          $ on_limit_arg $ journal_arg $ metrics_out_arg $ progress_arg)

let diff_cmd =
  let old_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"OLD" ~doc:"Previous GSL design.")
  in
  let new_file =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"NEW" ~doc:"Evolved GSL design.")
  in
  let run old_file new_file =
    handle (fun () ->
        let a = Kgmodel.Gsl.parse_validated (read_file old_file) in
        let b = Kgmodel.Gsl.parse_validated (read_file new_file) in
        let d = Kgmodel.Schema_diff.diff a b in
        Format.printf "%a" Kgmodel.Schema_diff.pp d;
        match Kgmodel.Schema_diff.migration_hints d with
        | [] -> ()
        | hints ->
            Format.printf "@.migration hints:@.";
            List.iter (Format.printf "  - %s@.") hints)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Model-independent diff of two super-schemas, with migration hints.")
    Term.(const run $ old_file $ new_file)

let check_cmd =
  let schema_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"SCHEMA" ~doc:"GSL design file.")
  in
  let n =
    Arg.(value & opt int 300
         & info [ "n" ] ~doc:"Size of the synthetic Company-KG instance to check \
                              (demo mode; the API checks arbitrary graphs).")
  in
  let run schema_file n =
    handle (fun () ->
        let schema = Kgmodel.Gsl.parse_validated (read_file schema_file) in
        (* demo: conformance-check a synthetic instance of the company KG
           when the design is compatible, otherwise just report the
           checker on an empty instance *)
        let g =
          if schema.Kgmodel.Supermodel.s_name = "company_kg" then
            Kgm_finance.Generator.to_company_graph
              (Kgm_finance.Generator.generate ~n ())
          else Kgm_graphdb.Pgraph.create ()
        in
        match Kgmodel.Conformance.check ~reject_intensional:true schema g with
        | [] ->
            Format.printf "instance conforms (%d nodes, %d edges)@."
              (Kgm_graphdb.Pgraph.node_count g)
              (Kgm_graphdb.Pgraph.edge_count g)
        | vs ->
            List.iter (Format.printf "%a@." Kgmodel.Conformance.pp_violation) vs;
            exit 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Conformance-check an instance against a super-schema.")
    Term.(const run $ schema_file $ n)

let figures_cmd =
  let out_dir =
    Arg.(value & opt string "figures"
         & info [ "out"; "o" ] ~doc:"Output directory for the figure artifacts.")
  in
  let run out_dir trace metrics jobs =
    handle (fun () ->
        with_observability ~trace ~metrics ~journal:None ~metrics_out:None
          ~progress:false ~deadline:None
        @@ fun tele _ ->
        let options = options_for_jobs jobs in
        if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
        let write name content =
          Kgm_telemetry.with_span tele ~cat:"figure" ("figure:" ^ name)
          @@ fun () ->
          let oc = open_out (Filename.concat out_dir name) in
          output_string oc content;
          close_out oc;
          Format.printf "wrote %s@." (Filename.concat out_dir name)
        in
        (* Fig. 2: the meta-model *)
        write "fig2_meta_model.dot" (Kgmodel.Metamodel.render_gamma_mm ());
        (* Fig. 3: the super-model dictionary + grapheme legend *)
        write "fig3_super_model.dot"
          (Kgmodel.Metamodel.render_super_model_dictionary ());
        write "fig3_grapheme_legend.txt" (Kgmodel.Render.grapheme_legend ());
        (* Fig. 4: the Company KG design diagram *)
        let schema = Kgm_finance.Company_schema.load () in
        write "fig4_company_kg.dot" (Kgmodel.Render.to_dot schema);
        write "fig4_company_kg.txt" (Kgmodel.Render.to_ascii schema);
        (* Figs. 6 and 8: the SSST translations *)
        let dict = Kgmodel.Dictionary.create () in
        let sid = Kgmodel.Dictionary.store dict schema in
        let pg_out =
          Kgmodel.Ssst.translate ~options ~telemetry:tele dict
            (Kgm_targets.Pg_model.mapping ()) sid
        in
        let pg = Kgm_targets.Pg_model.decode dict pg_out.Kgmodel.Ssst.target_oid in
        write "fig6_pg_schema.txt" (Format.asprintf "%a" Kgm_targets.Pg_model.pp pg);
        write "fig6_pg_constraints.cypher"
          (Kgm_targets.Pg_model.enforcement_script pg);
        let rel_out =
          Kgmodel.Ssst.translate ~options ~telemetry:tele dict
            (Kgm_targets.Relational_model.mapping ()) sid
        in
        let rel =
          Kgm_targets.Relational_model.decode dict rel_out.Kgmodel.Ssst.target_oid
        in
        write "fig8_relational_schema.txt"
          (Format.asprintf "%a" Kgm_relational.Rschema.pp rel);
        write "fig8_relational_schema.sql" (Kgm_targets.Relational_model.ddl rel);
        (* bonus targets: RDF-S and the CSV manifest *)
        write "company_kg.rdfs.ttl"
          (Kgm_targets.Triple_model.to_rdfs
             (Kgm_targets.Triple_model.translate_native schema));
        write "company_kg_csv_manifest.txt"
          (Kgm_targets.Csv_model.translate_native schema).Kgm_targets.Csv_model.manifest)
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:"Regenerate every figure artifact of the paper (Figs. 2, 3, 4, 6, 8).")
    Term.(const run $ out_dir $ trace_arg $ metrics_arg $ jobs_arg)

let journal_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"A JSONL flight recording written by --journal.")
  in
  let ev_type =
    Arg.(value & opt (some string) None
         & info [ "type"; "t" ] ~docv:"TYPE"
             ~doc:"Only consider events of $(docv) (e.g. round.end, \
                   rule.batch, plan, chunk, checkpoint.write).")
  in
  let since =
    Arg.(value & opt (some float) None
         & info [ "since" ] ~docv:"SECONDS"
             ~doc:"Drop events before $(docv), in seconds since the \
                   journal was opened.")
  in
  let until =
    Arg.(value & opt (some float) None
         & info [ "until" ] ~docv:"SECONDS"
             ~doc:"Drop events after $(docv).")
  in
  let events =
    Arg.(value & flag
         & info [ "events" ]
             ~doc:"Print the (filtered) events back as JSONL instead of \
                   the summary.")
  in
  let run file ev_type since until events =
    handle (fun () ->
        let module Journal = Kgm_telemetry.Journal in
        match Journal.read_file file with
        | Error msg ->
            Kgm_common.Kgm_error.raise_error_ctx Kgm_common.Kgm_error.Storage
              [ ("file", file) ]
              "invalid journal: %s" msg
        | Ok evs ->
            let evs = Journal.filter ?ev_type ?since ?until evs in
            if events then
              List.iter
                (fun ev ->
                  print_endline
                    (Kgm_telemetry.Json.to_string (Journal.json_of_event ev)))
                evs
            else print_string (Journal.summarize evs))
  in
  Cmd.v
    (Cmd.info "journal"
       ~doc:"Summarize or filter a chase flight recording (--journal).")
    Term.(const run $ file $ ev_type $ since $ until $ events)

let () =
  (* KGM_FAULTS=site:rate[,...][,seed=N] arms the deterministic fault-
     injection harness for the whole process *)
  ignore (Kgm_resilience.Faults.configure_from_env ());
  let info =
    Cmd.info "kgmodel" ~version:"1.0.0"
      ~doc:"Model-independent design of Knowledge Graphs (EDBT 2022 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ validate_cmd; render_cmd; translate_cmd; compile_cmd; reason_cmd;
            serve_cmd; call_cmd; stats_cmd; demo_cmd; diff_cmd; check_cmd;
            figures_cmd; journal_cmd ]))
