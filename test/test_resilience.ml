(* Tests for the resilience stack: cancellation tokens, seeded fault
   injection, retry with backoff, versioned snapshots, malformed-source
   hardening, and — the load-bearing properties — the engine's limit
   matrix (every limit x `Raise/`Partial x jobs) with deterministic
   partial prefixes, and bit-for-bit checkpoint/resume equivalence. *)

open Kgm_common
module V = Kgm_vadalog
module R = Kgm_resilience

let check = Alcotest.check

let run ?options ?cancel ?checkpoint ?resume_from src =
  V.Engine.run_program ?options ?cancel ?checkpoint ?resume_from
    (V.Parser.parse_program src)

let options_jobs jobs = { V.Engine.default_options with V.Engine.jobs }

(* a cyclic transitive closure: terminates, but only after enough
   rounds and facts to trip every budget the matrix below sets *)
let tc_src =
  let buf = Buffer.create 1024 in
  for i = 1 to 24 do
    Buffer.add_string buf (Printf.sprintf "edge(%d, %d). " i (i + 1))
  done;
  Buffer.add_string buf "edge(25, 1). ";
  Buffer.add_string buf "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";
  Buffer.contents buf

let fresh_dir =
  let ctr = ref 0 in
  fun name ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "kgm_resilience_%s_%d_%d" name (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f -> if Filename.check_suffix f ".snap" then
          Sys.remove (Filename.concat d f))
      (Sys.readdir d);
    d

(* ------------------------------------------------------------------ *)
(* Token *)

let test_token () =
  let t = R.Token.create () in
  check Alcotest.bool "fresh ok" true (R.Token.status t = `Ok);
  R.Token.check t;
  R.Token.cancel t;
  check Alcotest.bool "cancelled" true (R.Token.cancelled t);
  check Alcotest.bool "status cancelled" true (R.Token.status t = `Cancelled);
  (match R.Token.check t with
  | exception R.Interrupted `Cancelled -> ()
  | _ -> Alcotest.fail "expected Interrupted `Cancelled");
  let d = R.Token.create ~deadline_s:0.001 () in
  Unix.sleepf 0.01;
  check Alcotest.bool "deadline exceeded" true (R.Token.deadline_exceeded d);
  check Alcotest.bool "status deadline" true (R.Token.status d = `Deadline);
  (* cancellation wins over an expired deadline *)
  R.Token.cancel d;
  check Alcotest.bool "cancel wins" true (R.Token.status d = `Cancelled);
  (* the never-trips token *)
  check Alcotest.bool "none ok" true (R.Token.status R.Token.none = `Ok);
  R.Token.check R.Token.none

let test_token_remaining () =
  check Alcotest.(option (float 0.)) "no deadline, no budget" None
    (R.Token.remaining_s (R.Token.create ()));
  check Alcotest.(option (float 0.)) "none token" None
    (R.Token.remaining_s R.Token.none);
  let t = R.Token.create ~deadline_s:5. () in
  (match R.Token.remaining_s t with
  | Some r -> check Alcotest.bool "within budget" true (r > 0. && r <= 5.)
  | None -> Alcotest.fail "expected a remaining budget");
  let d = R.Token.create ~deadline_s:0.001 () in
  Unix.sleepf 0.01;
  check Alcotest.(option (float 1e-9)) "expired clamps to 0" (Some 0.)
    (R.Token.remaining_s d)

(* ------------------------------------------------------------------ *)
(* Faults: seeded determinism *)

let draw_faults site n =
  let c = ref 0 in
  for _ = 1 to n do
    try R.Faults.inject site with R.Fault _ -> incr c
  done;
  !c

let test_faults_deterministic () =
  R.Faults.reset ();
  check Alcotest.bool "inactive by default" false (R.Faults.active ());
  R.Faults.inject "anything" (* no-op when unconfigured *);
  R.Faults.configure "x:0.5,seed=9";
  check Alcotest.bool "active" true (R.Faults.active ());
  check
    Alcotest.(list (pair string (float 1e-9)))
    "sites" [ ("x", 0.5) ] (R.Faults.sites ());
  let c1 = draw_faults "x" 200 in
  check Alcotest.int "site_count tracks" c1 (R.Faults.site_count "x");
  check Alcotest.bool "some fired" true (c1 > 0 && c1 < 200);
  (* unregistered sites never raise even when the harness is active *)
  R.Faults.inject "unregistered";
  (* same seed, same site, same draws: identical injection sequence *)
  R.Faults.reset ();
  R.Faults.configure "x:0.5,seed=9";
  let c2 = draw_faults "x" 200 in
  check Alcotest.int "seeded replay" c1 c2;
  (* with_spec: a nested configuration, then the outer one draws on
     from where it stopped, also when the nested body raises *)
  R.Faults.reset ();
  R.Faults.configure "x:0.5,seed=9";
  let first = draw_faults "x" 100 in
  R.Faults.with_spec "y:1.0,seed=1" (fun () ->
      check
        Alcotest.(list (pair string (float 1e-9)))
        "nested sites" [ ("y", 1.0) ] (R.Faults.sites ());
      check Alcotest.int "outer site unarmed inside" 0 (draw_faults "x" 50));
  (match R.Faults.with_spec "y:1.0" (fun () -> R.Faults.inject "y") with
  | exception R.Fault _ -> ()
  | () -> Alcotest.fail "expected the nested fault");
  check
    Alcotest.(list (pair string (float 1e-9)))
    "outer sites back" [ ("x", 0.5) ] (R.Faults.sites ());
  check Alcotest.int "outer draw stream resumes" c1
    (first + draw_faults "x" 100);
  R.Faults.reset ();
  (match R.Faults.configure "not a spec" with
  | exception Kgm_error.Error e ->
      check Alcotest.bool "malformed spec is a validate error" true
        (e.Kgm_error.stage = Kgm_error.Validate)
  | _ -> Alcotest.fail "expected a validate error");
  R.Faults.reset ()

let test_faults_from_env () =
  R.Faults.reset ();
  Unix.putenv "KGM_FAULTS" "worker:0.25,seed=42";
  check Alcotest.bool "configured" true (R.Faults.configure_from_env ());
  check
    Alcotest.(list (pair string (float 1e-9)))
    "env sites" [ ("worker", 0.25) ] (R.Faults.sites ());
  Unix.putenv "KGM_FAULTS" "";
  R.Faults.reset ();
  check Alcotest.bool "empty env ignored" false (R.Faults.configure_from_env ())

(* ------------------------------------------------------------------ *)
(* Retry *)

let test_retry () =
  let calls = ref 0 in
  let r =
    R.Retry.with_backoff ~base_s:1e-4 (fun () ->
        incr calls;
        if !calls < 3 then raise (R.Fault "transient") else 42)
  in
  check Alcotest.int "absorbed" 42 r;
  check Alcotest.int "three attempts" 3 !calls;
  (* attempts exhausted: the last exception propagates *)
  calls := 0;
  (match
     R.Retry.with_backoff ~attempts:2 ~base_s:1e-4 (fun () ->
         incr calls;
         raise (R.Fault "still failing"))
   with
  | exception R.Fault _ -> check Alcotest.int "both attempts ran" 2 !calls
  | _ -> Alcotest.fail "expected the fault to propagate");
  (* exceptions rejected by retry_on propagate immediately *)
  calls := 0;
  (match
     R.Retry.with_backoff ~base_s:1e-4 (fun () ->
         incr calls;
         failwith "not transient")
   with
  | exception Failure _ -> check Alcotest.int "no retry" 1 !calls
  | _ -> Alcotest.fail "expected immediate propagation");
  (* on_retry observes every retry *)
  let seen = ref [] in
  calls := 0;
  ignore
    (R.Retry.with_backoff ~base_s:1e-4
       ~on_retry:(fun ~attempt _ -> seen := attempt :: !seen)
       (fun () ->
         incr calls;
         if !calls < 3 then raise (R.Fault "t") else ()));
  check Alcotest.(list int) "on_retry attempts" [ 2; 1 ] !seen

let test_retry_cancel_bounds () =
  (* a cancelled token suppresses further retries: the first failure
     propagates after exactly one attempt *)
  let tok = R.Token.create () in
  R.Token.cancel tok;
  let calls = ref 0 in
  (match
     R.Retry.with_backoff ~attempts:5 ~base_s:1e-4 ~cancel:tok (fun () ->
         incr calls;
         raise (R.Fault "t"))
   with
  | exception R.Fault _ -> check Alcotest.int "no retry when cancelled" 1 !calls
  | _ -> Alcotest.fail "expected the fault to propagate");
  (* a deadline token caps the whole loop: many nominal attempts with
     long sleeps still return within (roughly) the request budget *)
  let tok = R.Token.create ~deadline_s:0.05 () in
  let t0 = Unix.gettimeofday () in
  (match
     R.Retry.with_backoff ~attempts:50 ~base_s:0.04 ~max_s:0.5 ~cancel:tok
       (fun () -> raise (R.Fault "t"))
   with
  | exception R.Fault _ -> ()
  | _ -> Alcotest.fail "expected the fault to propagate");
  check Alcotest.bool "retry loop bounded by the deadline" true
    (Unix.gettimeofday () -. t0 < 1.0);
  (* decorrelated jitter stays within [base, max]: 4 attempts with a
     tiny cap cannot take long, jittered or not *)
  let t0 = Unix.gettimeofday () in
  (match
     R.Retry.with_backoff ~attempts:4 ~base_s:1e-4 ~max_s:0.01 (fun () ->
         raise (R.Fault "t"))
   with
  | exception R.Fault _ -> ()
  | _ -> Alcotest.fail "expected the fault to propagate");
  check Alcotest.bool "delays capped at max_s" true
    (Unix.gettimeofday () -. t0 < 0.5)

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let test_snapshot_roundtrip () =
  let dir = fresh_dir "snap" in
  let save seq v =
    R.Snapshot.save ~kind:"t" ~version:1
      ~path:(R.Snapshot.path ~dir ~kind:"t" ~seq)
      v
  in
  save 3 [ 1; 2; 3 ];
  save 1 [ 1 ];
  save 5 [ 1; 2; 3; 4; 5 ];
  check Alcotest.(list int) "sorted sequence numbers"
    [ 1; 3; 5 ]
    (List.map fst (R.Snapshot.list ~dir ~kind:"t"));
  let latest =
    match R.Snapshot.latest ~dir ~kind:"t" with
    | Some p -> p
    | None -> Alcotest.fail "expected a latest snapshot"
  in
  check Alcotest.(list int) "payload round-trips" [ 1; 2; 3; 4; 5 ]
    (R.Snapshot.load ~kind:"t" ~version:1 ~path:latest);
  (* other kinds don't leak in *)
  check Alcotest.bool "kind filter" true
    (R.Snapshot.list ~dir ~kind:"other" = []);
  let storage_error name f =
    match f () with
    | exception Kgm_error.Error e ->
        check Alcotest.bool (name ^ " is a storage error") true
          (e.Kgm_error.stage = Kgm_error.Storage)
    | _ -> Alcotest.fail ("expected a storage error: " ^ name)
  in
  storage_error "foreign kind" (fun () ->
      R.Snapshot.load ~kind:"other" ~version:1 ~path:latest);
  storage_error "version mismatch" (fun () ->
      R.Snapshot.load ~kind:"t" ~version:99 ~path:latest);
  storage_error "missing file" (fun () ->
      R.Snapshot.load ~kind:"t" ~version:1
        ~path:(R.Snapshot.path ~dir ~kind:"t" ~seq:999));
  (* corruption is detected by the payload digest *)
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 latest in
  seek_out oc (in_channel_length (open_in_bin latest) - 1);
  output_string oc "X";
  close_out oc;
  storage_error "corrupt payload" (fun () ->
      R.Snapshot.load ~kind:"t" ~version:1 ~path:latest)

let test_snapshot_write_fault_leaves_previous () =
  let dir = fresh_dir "snapfault" in
  let path = R.Snapshot.path ~dir ~kind:"t" ~seq:1 in
  R.Snapshot.save ~kind:"t" ~version:1 ~path "first";
  R.Faults.reset ();
  R.Faults.configure "checkpoint_write:1.0,seed=1";
  (match R.Snapshot.save ~kind:"t" ~version:1 ~path "second" with
  | exception R.Fault "checkpoint_write" -> ()
  | _ -> Alcotest.fail "expected an injected write fault");
  R.Faults.reset ();
  check Alcotest.string "previous snapshot intact" "first"
    (R.Snapshot.load ~kind:"t" ~version:1 ~path)

let test_snapshot_gc () =
  let dir = fresh_dir "snapgc" in
  let save seq =
    R.Snapshot.save ~kind:"t" ~version:1
      ~path:(R.Snapshot.path ~dir ~kind:"t" ~seq)
      seq
  in
  List.iter save [ 1; 2; 3; 4; 5 ];
  (* a generous keep removes nothing *)
  check Alcotest.(list string) "keep >= n removes nothing" []
    (R.Snapshot.gc ~dir ~kind:"t" ~keep:9);
  let removed = R.Snapshot.gc ~dir ~kind:"t" ~keep:2 in
  check Alcotest.int "removed the oldest three" 3 (List.length removed);
  check Alcotest.(list int) "newest generations survive" [ 4; 5 ]
    (List.map fst (R.Snapshot.list ~dir ~kind:"t"));
  check Alcotest.int "survivor loads" 5
    (R.Snapshot.load ~kind:"t" ~version:1
       ~path:(R.Snapshot.path ~dir ~kind:"t" ~seq:5));
  (* keep clamps to 1: the resume generation is never deleted *)
  ignore (R.Snapshot.gc ~dir ~kind:"t" ~keep:0);
  check Alcotest.(list int) "keep 0 still retains the newest" [ 5 ]
    (List.map fst (R.Snapshot.list ~dir ~kind:"t"));
  (* other kinds are untouched *)
  R.Snapshot.save ~kind:"u" ~version:1
    ~path:(R.Snapshot.path ~dir ~kind:"u" ~seq:1)
    0;
  ignore (R.Snapshot.gc ~dir ~kind:"t" ~keep:1);
  check Alcotest.int "kind filter" 1
    (List.length (R.Snapshot.list ~dir ~kind:"u"))

let test_checkpoint_rotation () =
  (* engine checkpoints with ~keep rotate after every write, and the
     newest retained generation still resumes bit-for-bit *)
  let ref_db, _ = run ~options:(options_jobs 1) tc_src in
  let dir = fresh_dir "ckrotate" in
  let ck = V.Engine.checkpoint ~every:1 ~keep:2 dir in
  ignore (run ~options:(options_jobs 1) ~checkpoint:ck tc_src);
  let snaps = R.Snapshot.list ~dir ~kind:"chase-chase" in
  check Alcotest.int "only keep generations remain" 2 (List.length snaps);
  let path =
    match V.Engine.latest_checkpoint dir with
    | Some p -> p
    | None -> Alcotest.fail "expected a retained snapshot"
  in
  let db_r, _ = run ~options:(options_jobs 1) ~resume_from:path tc_src in
  check Alcotest.bool "resume from a rotated dir is exact" true
    (Test_parallel.canon ref_db = Test_parallel.canon db_r)

(* ------------------------------------------------------------------ *)
(* io_sources: malformed rows, strict vs lenient *)

let test_sources_strict () =
  let db = V.Database.create () in
  (match
     V.Io_sources.load_rows ~source:"test" db "p" ~sep:'\n' "1,2\n3,\n4,5"
   with
  | exception Kgm_error.Error e ->
      check Alcotest.bool "storage stage" true
        (e.Kgm_error.stage = Kgm_error.Storage);
      check Alcotest.(option string) "line located" (Some "2")
        (List.assoc_opt "line" e.Kgm_error.context)
  | _ -> Alcotest.fail "expected a malformed-row error");
  let db = V.Database.create () in
  (match V.Io_sources.load_rows ~source:"test" db "p" ~sep:'\n' "1,2\n7" with
  | exception Kgm_error.Error _ -> ()
  | _ -> Alcotest.fail "expected an arity error")

let test_sources_lenient () =
  let db = V.Database.create () in
  let loaded, skipped, warnings =
    V.Io_sources.load_rows ~lenient:true ~source:"test" db "p" ~sep:'\n'
      "1,2\n3,\n4,5\n8\n"
  in
  check Alcotest.int "loaded" 2 loaded;
  check Alcotest.int "skipped" 2 skipped;
  check Alcotest.(list int) "warning lines" [ 2; 4 ]
    (List.map (fun w -> w.V.Io_sources.w_line) warnings);
  check Alcotest.int "db has the good rows" 2 (V.Database.count db "p")

(* ------------------------------------------------------------------ *)
(* The limit matrix: every limit x `Raise/`Partial x jobs, with the
   partial database a deterministic prefix of the full fixpoint *)

let rec list_is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p', y :: l' -> x = y && list_is_prefix p' l'
  | _ -> false

let db_is_prefix partial full =
  List.for_all
    (fun pred ->
      list_is_prefix (V.Database.facts partial pred) (V.Database.facts full pred))
    (V.Database.predicates partial)

let test_limit_matrix () =
  let full_db, _ = run ~options:(options_jobs 1) tc_src in
  let cases =
    [ ("facts", (fun o -> { o with V.Engine.max_facts = 40 }), `Facts);
      ("rounds", (fun o -> { o with V.Engine.max_rounds = 3 }), `Rounds);
      ("deadline", (fun o -> { o with V.Engine.deadline_s = Some 0.0 }),
       `Deadline) ]
  in
  List.iter
    (fun (name, tweak, expected) ->
      List.iter
        (fun jobs ->
          let tag fmt = Printf.sprintf "%s jobs=%d: %s" name jobs fmt in
          (* `Raise (the default): a Reason error *)
          (match run ~options:(tweak (options_jobs jobs)) tc_src with
          | exception Kgm_error.Error e ->
              check Alcotest.bool (tag "raise stage") true
                (e.Kgm_error.stage = Kgm_error.Reason)
          | _ -> Alcotest.fail (tag "expected an error"));
          (* `Partial: tagged, incomplete, and a prefix of the fixpoint *)
          let opts =
            { (tweak (options_jobs jobs)) with V.Engine.on_limit = `Partial }
          in
          let db, stats = run ~options:opts tc_src in
          check Alcotest.bool (tag "stopped tag") true
            (stats.V.Engine.stopped = Some expected);
          check Alcotest.bool (tag "strictly partial") true
            (V.Database.total db < V.Database.total full_db);
          check Alcotest.bool (tag "prefix of fixpoint") true
            (db_is_prefix db full_db))
        [ 1; 2 ];
      (* the partial stop itself is jobs-deterministic *)
      let opts j =
        { (tweak (options_jobs j)) with V.Engine.on_limit = `Partial }
      in
      let db1, s1 = run ~options:(opts 1) tc_src in
      let db2, s2 = run ~options:(opts 2) tc_src in
      check Alcotest.bool (name ^ ": partial facts jobs-equal") true
        (Test_parallel.canon db1 = Test_parallel.canon db2);
      check Alcotest.int (name ^ ": partial rounds jobs-equal")
        s1.V.Engine.rounds s2.V.Engine.rounds)
    cases

let test_cancel_token () =
  let t = R.Token.create () in
  R.Token.cancel t;
  let opts = { (options_jobs 2) with V.Engine.on_limit = `Partial } in
  let _, stats = run ~options:opts ~cancel:t tc_src in
  check Alcotest.bool "pre-cancelled token stops the run" true
    (stats.V.Engine.stopped = Some `Cancelled);
  (match run ~options:(options_jobs 2) ~cancel:t tc_src with
  | exception Kgm_error.Error e ->
      check Alcotest.(option string) "interrupted context" (Some "cancelled")
        (List.assoc_opt "interrupted" e.Kgm_error.context)
  | _ -> Alcotest.fail "expected the cancellation to raise under `Raise")

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume: bit-for-bit equivalence *)

(* a warded program with existentials: resume must also restore the
   labeled-null numbering, which Test_parallel.canon makes comparable *)
let warded_src =
  {| emp(e0). emp(e1). emp(e2).
     mgr(X, M) :- emp(X).
     emp(M) :- mgr(X, M). |}

let resume_all_snapshots name src =
  let ref_db, ref_stats = run ~options:(options_jobs 1) src in
  let dir = fresh_dir name in
  let ck = V.Engine.checkpoint ~every:1 dir in
  let db_ck, stats_ck = run ~options:(options_jobs 1) ~checkpoint:ck src in
  check Alcotest.bool (name ^ ": checkpointing changes nothing") true
    (Test_parallel.canon ref_db = Test_parallel.canon db_ck
    && Test_parallel.rule_counters ref_stats
       = Test_parallel.rule_counters stats_ck);
  let snaps = R.Snapshot.list ~dir ~kind:"chase-chase" in
  check Alcotest.bool (name ^ ": several snapshots") true
    (List.length snaps >= 2);
  List.iter
    (fun (seq, path) ->
      List.iter
        (fun jobs ->
          let db_r, stats_r =
            run ~options:(options_jobs jobs) ~resume_from:path src
          in
          let tag fmt =
            Printf.sprintf "%s: resume from %d (jobs=%d) %s" name seq jobs fmt
          in
          check Alcotest.bool (tag "facts + nulls") true
            (Test_parallel.canon ref_db = Test_parallel.canon db_r);
          check Alcotest.int (tag "rounds") ref_stats.V.Engine.rounds
            stats_r.V.Engine.rounds;
          check Alcotest.bool (tag "per-rule counters") true
            (Test_parallel.rule_counters ref_stats
            = Test_parallel.rule_counters stats_r))
        [ 1; 2 ])
    snaps

let test_resume_tc () = resume_all_snapshots "tc" tc_src
let test_resume_warded () = resume_all_snapshots "warded" warded_src

let test_resume_rejects_foreign_program () =
  let dir = fresh_dir "foreign" in
  let ck = V.Engine.checkpoint ~every:1 dir in
  ignore (run ~options:(options_jobs 1) ~checkpoint:ck tc_src);
  let path =
    match V.Engine.latest_checkpoint dir with
    | Some p -> p
    | None -> Alcotest.fail "expected a snapshot"
  in
  match run ~options:(options_jobs 1) ~resume_from:path warded_src with
  | exception Kgm_error.Error e ->
      check Alcotest.bool "fingerprint mismatch is a validate error" true
        (e.Kgm_error.stage = Kgm_error.Validate)
  | _ -> Alcotest.fail "expected the fingerprint check to reject"

(* crash mid-chase at a seeded fault site, then resume from the
   surviving snapshots: the final state must equal the uninterrupted
   run's, bit for bit *)
let crash_then_resume name spec src =
  let ref_db, _ = run ~options:(options_jobs 1) src in
  let dir = fresh_dir name in
  let ck = V.Engine.checkpoint ~every:1 dir in
  R.Faults.reset ();
  R.Faults.configure spec;
  let crashed =
    try
      ignore (run ~options:(options_jobs 1) ~checkpoint:ck src);
      false
    with R.Fault _ | Kgm_error.Error _ -> true
  in
  R.Faults.reset ();
  check Alcotest.bool (name ^ ": the seeded fault crashed the run") true
    crashed;
  let db_r, _ =
    match V.Engine.latest_checkpoint dir with
    | Some p -> run ~options:(options_jobs 1) ~resume_from:p src
    | None -> run ~options:(options_jobs 1) src
  in
  check Alcotest.bool (name ^ ": resume equals uninterrupted") true
    (Test_parallel.canon ref_db = Test_parallel.canon db_r)

let test_crash_round_site () =
  crash_then_resume "crash_round" "round:0.4,seed=3" tc_src

let test_crash_db_insert_site () =
  crash_then_resume "crash_insert" "db_insert:0.005,seed=2" tc_src

let test_checkpoint_write_faults_absorbed () =
  (* every checkpoint write fails (rate 1.0 defeats the retry): the run
     must still complete, degraded to no snapshots *)
  let dir = fresh_dir "ckfail" in
  let ck = V.Engine.checkpoint ~every:1 dir in
  R.Faults.reset ();
  R.Faults.configure "checkpoint_write:1.0,seed=1";
  let db, stats = run ~options:(options_jobs 1) ~checkpoint:ck tc_src in
  R.Faults.reset ();
  check Alcotest.bool "run completed" true (stats.V.Engine.stopped = None);
  let ref_db, _ = run ~options:(options_jobs 1) tc_src in
  check Alcotest.bool "result unaffected" true
    (Test_parallel.canon ref_db = Test_parallel.canon db);
  check Alcotest.bool "no snapshot survived" true
    (V.Engine.latest_checkpoint dir = None)

let test_worker_faults_retried () =
  let ref_db, _ = run ~options:(options_jobs 1) tc_src in
  R.Faults.reset ();
  R.Faults.configure "worker:0.15,seed=5";
  (* a worker fault is retried up to 3 times; with rate 0.15 a triple
     failure is possible, so allow the whole run a few attempts — the
     point is that absorbed faults never corrupt the result *)
  let rec attempt k =
    match run ~options:(options_jobs 2) tc_src with
    | db, _ -> db
    | exception (R.Fault _ | Kgm_error.Error _) when k > 0 -> attempt (k - 1)
  in
  let db = attempt 5 in
  let injected = R.Faults.site_count "worker" in
  R.Faults.reset ();
  check Alcotest.bool "faults were injected" true (injected > 0);
  check Alcotest.bool "retries preserved the result" true
    (Test_parallel.canon ref_db = Test_parallel.canon db)

(* ------------------------------------------------------------------ *)
(* Materialization: partial results are flushed and tagged *)

let test_materialize_incomplete () =
  let schema = Kgm_finance.Company_schema.load () in
  let dict = Kgmodel.Dictionary.create () in
  let sid = Kgmodel.Dictionary.store dict schema in
  let inst = Kgmodel.Instances.create dict in
  let data =
    Kgm_finance.Generator.to_company_graph
      (Kgm_finance.Generator.generate ~n:60 ())
  in
  let options =
    { V.Engine.default_options with
      V.Engine.deadline_s = Some 0.0;
      on_limit = `Partial }
  in
  let r =
    Kgmodel.Materialize.materialize ~options ~instances:inst ~schema
      ~schema_oid:sid ~data ~sigma:Kgm_finance.Intensional.full ()
  in
  check Alcotest.bool "tagged incomplete" true r.Kgmodel.Materialize.incomplete;
  check Alcotest.bool "limiting resource recorded" true
    (r.Kgmodel.Materialize.engine_stats.V.Engine.stopped = Some `Deadline)

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "token: cancel, deadline, check." `Quick test_token;
    Alcotest.test_case "faults: seeded determinism." `Quick
      test_faults_deterministic;
    Alcotest.test_case "faults: KGM_FAULTS env." `Quick test_faults_from_env;
    Alcotest.test_case "retry with backoff." `Quick test_retry;
    Alcotest.test_case "token: remaining budget." `Quick test_token_remaining;
    Alcotest.test_case "retry: cancel + deadline bound the loop." `Quick
      test_retry_cancel_bounds;
    Alcotest.test_case "snapshot: round-trip + guard rails." `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "snapshot: generation gc." `Quick test_snapshot_gc;
    Alcotest.test_case "checkpoint rotation keeps the resume point." `Quick
      test_checkpoint_rotation;
    Alcotest.test_case "snapshot: atomic write under faults." `Quick
      test_snapshot_write_fault_leaves_previous;
    Alcotest.test_case "sources: strict malformed rows." `Quick
      test_sources_strict;
    Alcotest.test_case "sources: lenient skip + warnings." `Quick
      test_sources_lenient;
    Alcotest.test_case "limit matrix: limits x policy x jobs." `Quick
      test_limit_matrix;
    Alcotest.test_case "cancellation token stops the engine." `Quick
      test_cancel_token;
    Alcotest.test_case "resume equivalence: transitive closure." `Quick
      test_resume_tc;
    Alcotest.test_case "resume equivalence: warded nulls." `Quick
      test_resume_warded;
    Alcotest.test_case "resume rejects a foreign program." `Quick
      test_resume_rejects_foreign_program;
    Alcotest.test_case "crash-then-resume: round site." `Quick
      test_crash_round_site;
    Alcotest.test_case "crash-then-resume: db_insert site." `Quick
      test_crash_db_insert_site;
    Alcotest.test_case "checkpoint write faults are absorbed." `Quick
      test_checkpoint_write_faults_absorbed;
    Alcotest.test_case "worker faults are retried." `Quick
      test_worker_faults_retried;
    Alcotest.test_case "materialize: partial flush is tagged." `Quick
      test_materialize_incomplete ]
