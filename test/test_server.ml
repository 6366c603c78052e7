(* Tests for the reasoning server: the shared batch parser, epoch-swap
   query serving over a live Unix socket, overload shedding at the
   admission queue, per-request deadlines, graceful drain under every
   injected-fault site, and recovery-from-every-generation equivalence
   of the session snapshots. The servers here run in-process (threads,
   a socket in the temp dir), so the drain matrix and the fault
   registry stay deterministic under alcotest. *)

module V = Kgm_vadalog
module R = Kgm_resilience
module S = Kgm_server
module Inc = Kgm_vadalog.Incremental

let check = Alcotest.check
let options = { V.Engine.default_options with V.Engine.jobs = 1 }

let fresh_dir =
  let ctr = ref 0 in
  fun name ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "kgm_server_%s_%d_%d" name (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".snap" || Filename.check_suffix f ".log"
        then Sys.remove (Filename.concat d f))
      (Sys.readdir d);
    d

let fresh_sock =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kgm_srv_%d_%d.sock" (Unix.getpid ()) !ctr)

(* a small recursive program on the incremental fast path (no
   aggregation, no negation): updates repair without fallback *)
let tc_src =
  {| edge(a, b). edge(b, c). edge(c, d).
     path(X, Y) :- edge(X, Y).
     path(X, Z) :- path(X, Y), edge(Y, Z). |}

let mk_session src =
  let st, _ = Inc.chase ~options (V.Parser.parse_program src) in
  st

(* start a server around a fresh session, run [f], always drain *)
let with_server ?(src = tc_src) ?session ?(cfg = fun c -> c) ?telemetry
    ?journal f =
  let session =
    match session with Some st -> st | None -> mk_session src
  in
  let sock = fresh_sock () in
  let config = cfg (S.default_config ~sock) in
  let srv = S.create ?telemetry ?journal { config with S.sock } ~session in
  S.start srv;
  if not (S.Client.wait_ready sock) then Alcotest.fail "server never ready";
  let stats = ref None in
  Fun.protect
    ~finally:(fun () ->
      S.drain srv;
      stats := Some (S.run_until_drained srv))
    (fun () -> f srv sock);
  match !stats with Some s -> s | None -> Alcotest.fail "no final stats"

let post ?deadline_s sock path body =
  S.Client.request ?deadline_s ~body ~sock ~meth:"POST" ~path ()

let get sock path = S.Client.request ~sock ~meth:"GET" ~path ()

let sorted_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Batch parser *)

let test_batch_parse () =
  let batch =
    S.Batch.parse
      "+edge(a, b).\n\
       -edge(b, c).\n\
       % a comment\n\
       \n\
       edge(c, d)\n\
       +p(1, 2.5, \"x\").\n"
  in
  let show (s, (pred, fact)) =
    Printf.sprintf "%s%s/%d"
      (match s with `Ins -> "+" | `Ret -> "-")
      pred (Array.length fact)
  in
  check
    Alcotest.(list string)
    "signs, comments, optional + and ."
    [ "+edge/2"; "-edge/2"; "+edge/2"; "+p/3" ]
    (List.map show batch);
  let inserts, retracts = S.Batch.split batch in
  check Alcotest.int "inserts" 3 (List.length inserts);
  check Alcotest.int "retracts" 1 (List.length retracts);
  (* a rule is not a batch line, and the error locates it *)
  (match S.Batch.parse "+edge(a, b).\np(X) :- q(X).\n" with
  | exception Kgm_common.Kgm_error.Error e ->
      check Alcotest.bool "validate stage" true
        (e.Kgm_common.Kgm_error.stage = Kgm_common.Kgm_error.Validate);
      check
        Alcotest.(option string)
        "line located" (Some "2")
        (List.assoc_opt "line" e.Kgm_common.Kgm_error.context)
  | _ -> Alcotest.fail "expected a validate error");
  match S.Batch.parse "-not a fact" with
  | exception Kgm_common.Kgm_error.Error _ -> ()
  | _ -> Alcotest.fail "expected a parse rejection"

(* ------------------------------------------------------------------ *)
(* Queries against a live server *)

let test_queries () =
  let stats =
    with_server (fun _srv sock ->
        let code, body = get sock "/health" in
        check Alcotest.int "health" 200 code;
        check Alcotest.string "health body" "ok\n" body;
        let code, _ = get sock "/ready" in
        check Alcotest.int "ready" 200 code;
        (* bare predicate: every fact *)
        let code, body = post sock "/query" "edge" in
        check Alcotest.int "pred query" 200 code;
        check
          Alcotest.(list string)
          "all edges"
          [ "edge(\"a\", \"b\")."; "edge(\"b\", \"c\")."; "edge(\"c\", \"d\")." ]
          (sorted_lines body);
        (* bound first position *)
        let _, body = post sock "/query" "path(a, X)" in
        check
          Alcotest.(list string)
          "pattern query"
          [ "path(\"a\", \"b\")."; "path(\"a\", \"c\")."; "path(\"a\", \"d\")." ]
          (sorted_lines body);
        (* repeated variable joins within the fact *)
        let _, body = post sock "/query" "path(X, X)" in
        check Alcotest.(list string) "repeated var" [] (sorted_lines body);
        (* unknown predicate: empty, not an error *)
        let code, body = post sock "/query" "nothing(X)" in
        check Alcotest.int "unknown pred ok" 200 code;
        check Alcotest.string "unknown pred empty" "" body;
        (* malformed pattern, two atoms, a rule: a clean 400 *)
        List.iter
          (fun q ->
            let code, _ = post sock "/query" q in
            check Alcotest.int ("bad pattern " ^ q) 400 code)
          [ "p("; "path(a, X), edge(a, Y)"; "path(a, X) :- edge(a, X)" ];
        let code, _ = get sock "/nope" in
        check Alcotest.int "unknown endpoint" 404 code;
        (* metrics exposition includes the server gauges *)
        let code, _ = get sock "/metrics" in
        check Alcotest.int "metrics" 200 code)
  in
  check Alcotest.int "no shed" 0 stats.S.st_shed;
  check Alcotest.bool "requests counted" true (stats.S.st_requests >= 8)

let test_update_epochs () =
  ignore
    (with_server (fun srv sock ->
         let _, e0 = get sock "/epoch" in
         check Alcotest.string "initial epoch" "0\n" e0;
         let code, body = post sock "/update" "+edge(d, e).\n-edge(a, b).\n" in
         check Alcotest.int "update ok" 200 code;
         check Alcotest.bool "update reports the new epoch" true
           (String.length body >= 10 && String.sub body 0 10 = "ok epoch=1");
         let _, e1 = get sock "/epoch" in
         check Alcotest.string "epoch swapped" "1\n" e1;
         (* the repaired materialization serves the new closure *)
         let _, body = post sock "/query" "path(b, X)" in
         check
           Alcotest.(list string)
           "inserted edge reaches the closure"
           [ "path(\"b\", \"c\")."; "path(\"b\", \"d\")."; "path(\"b\", \"e\")." ]
           (sorted_lines body);
         let _, body = post sock "/query" "path(a, X)" in
         check Alcotest.(list string) "retraction took" [] (sorted_lines body);
         (* explain over the maintained support *)
         let code, body = post sock "/explain" "path(b, d)" in
         check Alcotest.int "explain ok" 200 code;
         check Alcotest.bool "explain shows a derivation" true
           (String.length body > 0
           && not
                (String.length body >= 5 && String.sub body 0 5 = "% not"));
         check Alcotest.int "server stats count the update" 1
           (S.stats srv).S.st_updates))

let test_deadline () =
  ignore
    (with_server
       ~cfg:(fun c -> { c with S.debug_endpoints = true })
       (fun _srv sock ->
         let code, body = post ~deadline_s:0.3 sock "/slow" "5" in
         check Alcotest.int "deadline trips" 504 code;
         check Alcotest.string "deadline body" "deadline\n" body))

(* a client that hangs up before its answer is written costs the server
   an EPIPE on that connection, not the process (SIGPIPE would kill it,
   and with it this test binary) *)
let test_client_hangup () =
  ignore
    (with_server
       ~cfg:(fun c -> { c with S.debug_endpoints = true })
       (fun _srv sock ->
         for _ = 1 to 3 do
           let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
           Unix.connect fd (ADDR_UNIX sock);
           let req =
             "POST /slow HTTP/1.1\r\nhost: kgm\r\ncontent-length: 3\r\n\r\n0.2"
           in
           ignore (Unix.write_substring fd req 0 (String.length req));
           Unix.close fd
         done;
         Thread.delay 0.6;
         check Alcotest.int "still serving" 200 (fst (get sock "/ready"))))

(* ------------------------------------------------------------------ *)
(* Overload shedding: queue full => immediate 503, never a hang *)

let test_overload_shedding () =
  let stats =
    with_server
      ~cfg:(fun c ->
        { c with S.workers = 1; queue_capacity = 1; debug_endpoints = true })
      (fun _srv sock ->
        let n = 6 in
        let codes = Array.make n (-1) in
        let fire i path body =
          Thread.create
            (fun () ->
              match post ~deadline_s:10. sock path body with
              | code, _ -> codes.(i) <- code
              | exception Unix.Unix_error _ -> codes.(i) <- -2)
            ()
        in
        (* one request occupies the single worker, one fills the queue *)
        let t0 = fire 0 "/slow" "0.8" in
        Thread.delay 0.25;
        let t1 = fire 1 "/slow" "0.8" in
        Thread.delay 0.15;
        (* the rest arrive while worker + queue are full *)
        let rest = List.init (n - 2) (fun i -> fire (i + 2) "/query" "edge") in
        List.iter Thread.join (t0 :: t1 :: rest);
        if not (Array.for_all (fun c -> c > 0) codes) then
          Printf.eprintf "codes: %s\n%!"
            (String.concat " "
               (Array.to_list (Array.map string_of_int codes)));
        check Alcotest.bool "every request got an answer (no hang)" true
          (Array.for_all (fun c -> c > 0) codes);
        check Alcotest.int "the in-flight slow request finished" 200 codes.(0);
        let shed =
          Array.fold_left (fun k c -> if c = 503 then k + 1 else k) 0 codes
        in
        check Alcotest.bool "at least one request was shed with 503" true
          (shed >= 1))
  in
  check Alcotest.bool "shed counted by the server" true (stats.S.st_shed >= 1)

(* ------------------------------------------------------------------ *)
(* Drain under faults: SIGTERM x in-flight request x KGM_FAULTS site.
   Whatever the armed site, drain must complete, cancel or finish the
   in-flight request, and leave a recoverable final snapshot. *)

let drain_under_fault site_spec =
  let name = match site_spec with None -> "none" | Some s -> s in
  let dir = fresh_dir ("drain_" ^ name) in
  R.Faults.reset ();
  (match site_spec with
  | Some spec -> R.Faults.configure spec
  | None -> ());
  let session = mk_session tc_src in
  let sock = fresh_sock () in
  let cfg =
    { (S.default_config ~sock) with
      S.state_dir = Some dir;
      debug_endpoints = true;
      workers = 2 }
  in
  let srv = S.create cfg ~session in
  S.start srv;
  if not (S.Client.wait_ready sock) then Alcotest.fail (name ^ ": never ready");
  (* an update exercises the swap site (a swap that exhausts its
     retries answers 500 and must not wedge the server) *)
  let _ = post sock "/update" "+edge(d, e).\n" in
  (* park an in-flight request, then drain out from under it *)
  let inflight_code = ref (-1) in
  let th =
    Thread.create
      (fun () ->
        match post ~deadline_s:20. sock "/slow" "20" with
        | code, _ -> inflight_code := code
        | exception Unix.Unix_error _ -> inflight_code := -2)
      ()
  in
  Thread.delay 0.3;
  S.drain srv;
  let t0 = Unix.gettimeofday () in
  let stats = S.run_until_drained srv in
  let drain_s = Unix.gettimeofday () -. t0 in
  Thread.join th;
  R.Faults.reset ();
  check Alcotest.bool (name ^ ": drain is prompt, not a 20s wait") true
    (drain_s < 5.);
  check Alcotest.bool (name ^ ": in-flight request was answered") true
    (!inflight_code > 0);
  check Alcotest.bool (name ^ ": socket removed") false (Sys.file_exists sock);
  (* the final snapshot recovers (faults now disarmed) *)
  (match S.recover ~options ~dir [ V.Parser.parse_program tc_src ] with
  | Some (st, _epoch, _path) ->
      check Alcotest.bool (name ^ ": recovered state serves facts") true
        (V.Database.total (Inc.db st) > 0)
  | None ->
      (* only acceptable when the armed site defeated every write
         (checkpoint_write is retried, so plain drain faults cannot) *)
      if site_spec = None then
        Alcotest.fail (name ^ ": expected a recoverable snapshot"));
  ignore stats

let test_drain_matrix () =
  List.iter drain_under_fault
    [ None;
      Some "drain:1.0,seed=7";
      Some "swap:1.0,seed=7";
      Some "request:0.3,seed=7";
      Some "accept:0.2,seed=7" ]

(* ------------------------------------------------------------------ *)
(* Session snapshots: recovery from every generation *)

let canon st = Inc.canonical_facts (Inc.db st)

let test_recover_every_generation () =
  let dir = fresh_dir "gens" in
  let program = V.Parser.parse_program tc_src in
  let session = mk_session tc_src in
  let expected = Hashtbl.create 4 in
  ignore (S.save_session ~dir ~keep:10 ~epoch:0 session);
  Hashtbl.replace expected 0 (canon session);
  let batches =
    [ (1, "+edge(d, e).\n"); (2, "+edge(e, a).\n"); (3, "-edge(a, b).\n") ]
  in
  List.iter
    (fun (epoch, batch) ->
      let inserts, retracts = S.Batch.split (S.Batch.parse batch) in
      ignore (Inc.maintain session ~inserts ~retracts);
      ignore (S.save_session ~dir ~keep:10 ~epoch session);
      Hashtbl.replace expected epoch (canon session))
    batches;
  check Alcotest.int "four generations on disk" 4
    (List.length (R.Snapshot.list ~dir ~kind:"session"));
  (* each generation, restored in isolation, re-chases to exactly the
     materialization it snapshotted *)
  List.iter
    (fun epoch ->
      let gen_dir = fresh_dir (Printf.sprintf "gen_%d" epoch) in
      let src = R.Snapshot.path ~dir ~kind:"session" ~seq:epoch in
      let dst = R.Snapshot.path ~dir:gen_dir ~kind:"session" ~seq:epoch in
      let ic = open_in_bin src in
      let oc = open_out_bin dst in
      output_string oc (really_input_string ic (in_channel_length ic));
      close_in ic;
      close_out oc;
      match S.recover ~options ~dir:gen_dir [ program ] with
      | Some (st, ep, _path) ->
          check Alcotest.int
            (Printf.sprintf "generation %d: epoch restored" epoch)
            epoch ep;
          check Alcotest.bool
            (Printf.sprintf "generation %d: equivalent materialization" epoch)
            true
            (canon st = Hashtbl.find expected epoch)
      | None ->
          Alcotest.fail (Printf.sprintf "generation %d did not recover" epoch))
    [ 0; 1; 2; 3 ];
  (* a corrupted newest generation falls back to the previous one *)
  let newest = R.Snapshot.path ~dir ~kind:"session" ~seq:3 in
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 newest in
  seek_out oc (in_channel_length (open_in_bin newest) - 1);
  output_string oc "X";
  close_out oc;
  (match S.recover ~options ~dir [ program ] with
  | Some (st, ep, _path) ->
      check Alcotest.int "fell back to generation 2" 2 ep;
      check Alcotest.bool "fallback materialization equivalent" true
        (canon st = Hashtbl.find expected 2)
  | None -> Alcotest.fail "expected the fallback generation to recover");
  (* a different program's rules reject every generation *)
  check Alcotest.bool "foreign program recovers nothing" true
    (S.recover ~options ~dir
       [ V.Parser.parse_program "p(X) :- q(X). q(1)." ]
    = None)

let test_save_session_rotates () =
  let dir = fresh_dir "rotate" in
  let session = mk_session tc_src in
  for epoch = 0 to 5 do
    ignore (S.save_session ~dir ~keep:2 ~epoch session)
  done;
  check Alcotest.(list int) "only the newest two generations" [ 4; 5 ]
    (List.map fst (R.Snapshot.list ~dir ~kind:"session"))

(* retracting an inline program fact must not resurrect on recovery:
   the restore chases facts-stripped phases *)
let test_recover_respects_retracted_program_facts () =
  let dir = fresh_dir "retract" in
  let program = V.Parser.parse_program tc_src in
  let session = mk_session tc_src in
  let inserts, retracts = S.Batch.split (S.Batch.parse "-edge(a, b).\n") in
  ignore (Inc.maintain session ~inserts ~retracts);
  ignore (S.save_session ~dir ~keep:3 ~epoch:1 session);
  match S.recover ~options ~dir [ program ] with
  | Some (st, _, _) ->
      check Alcotest.bool "retracted inline fact stays retracted" false
        (V.Database.mem (Inc.db st) "edge"
           [| Kgm_common.Value.String "a"; Kgm_common.Value.String "b" |]);
      check Alcotest.bool "equivalent to the maintained session" true
        (canon st = canon session)
  | None -> Alcotest.fail "expected recovery"

(* ------------------------------------------------------------------ *)
(* Connection lifecycle: keep-alive, pipelining, timeouts, caps, and
   the drain interaction. These talk raw bytes to the socket where the
   protocol detail (leftover carryover, close headers, EOF) is the
   thing under test, and use the persistent Client elsewhere. *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

let raw_connect sock =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX sock);
  (try Unix.setsockopt_float fd SO_RCVTIMEO 5. with Unix.Unix_error _ -> ());
  fd

let raw_request ?(headers = "") meth path body =
  Printf.sprintf "%s %s HTTP/1.1\r\nhost: t\r\n%scontent-length: %d\r\n\r\n%s"
    meth path headers (String.length body) body

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* read one content-length framed response; [pending] holds bytes read
   past the previous frame. Returns (status, headers, body, the
   response's length on the wire, leftover). *)
let read_frame fd pending =
  let buf = Buffer.create 512 in
  Buffer.add_string buf pending;
  let chunk = Bytes.create 4096 in
  let recv () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.fail "peer closed mid-response"
    | n -> Buffer.add_subbytes buf chunk 0 n
  in
  let rec head () =
    match find_sub (Buffer.contents buf) "\r\n\r\n" 0 with
    | Some i -> i
    | None ->
        recv ();
        head ()
  in
  let head_end = head () in
  let all = Buffer.contents buf in
  let lines =
    String.split_on_char '\r' (String.sub all 0 head_end)
    |> List.map String.trim
  in
  let status =
    match lines with
    | first :: _ -> (
        match String.split_on_char ' ' first with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.fail "bad status line")
    | [] -> Alcotest.fail "empty head"
  in
  let headers =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i ->
            Some
              ( String.lowercase_ascii (String.sub l 0 i),
                String.trim (String.sub l (i + 1) (String.length l - i - 1))
              )
        | None -> None)
      (List.tl lines)
  in
  let clen = int_of_string (List.assoc "content-length" headers) in
  let total = head_end + 4 + clen in
  while Buffer.length buf < total do
    recv ()
  done;
  let all = Buffer.contents buf in
  ( status,
    headers,
    String.sub all (head_end + 4) clen,
    total,
    String.sub all total (String.length all - total) )

(* [read_frame] without the wire length *)
let read_framed fd pending =
  let status, headers, body, _, left = read_frame fd pending in
  (status, headers, body, left)

let expect_eof ?(timeout_s = 3.) fd =
  (try Unix.setsockopt_float fd SO_RCVTIMEO timeout_s
   with Unix.Unix_error _ -> ());
  let b = Bytes.create 64 in
  match Unix.read fd b 0 64 with
  | 0 -> ()
  | n -> Alcotest.fail (Printf.sprintf "expected EOF, got %d bytes" n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Alcotest.fail "expected EOF, connection still open"

(* two requests written back-to-back in one write: the bytes past the
   first content-length must be carried into the second request, not
   truncated; a third request with connection: close ends it *)
let test_pipelining () =
  ignore
    (with_server (fun _srv sock ->
         let fd = raw_connect sock in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             write_all fd
               (raw_request "POST" "/query" "edge"
               ^ raw_request "POST" "/query" "path(a, X)");
             let s1, h1, b1, left = read_framed fd "" in
             check Alcotest.int "pipelined 1 ok" 200 s1;
             check
               Alcotest.(option string)
               "pipelined 1 keeps alive" (Some "keep-alive")
               (List.assoc_opt "connection" h1);
             check
               Alcotest.(list string)
               "pipelined 1 answers"
               [ "edge(\"a\", \"b\")."; "edge(\"b\", \"c\").";
                 "edge(\"c\", \"d\")." ]
               (sorted_lines b1);
             let s2, _, b2, left = read_framed fd left in
             check Alcotest.int "pipelined 2 ok" 200 s2;
             check
               Alcotest.(list string)
               "pipelined 2 answers (carryover not truncated)"
               [ "path(\"a\", \"b\")."; "path(\"a\", \"c\").";
                 "path(\"a\", \"d\")." ]
               (sorted_lines b2);
             write_all fd
               (raw_request ~headers:"connection: close\r\n" "POST" "/query"
                  "edge");
             let s3, h3, _, left = read_framed fd left in
             check Alcotest.int "on-demand close ok" 200 s3;
             check
               Alcotest.(option string)
               "close honored" (Some "close")
               (List.assoc_opt "connection" h3);
             check Alcotest.string "nothing buffered past the close" "" left;
             expect_eof fd)))

(* many requests over one persistent Client connection: request count
   grows, connection count does not *)
let test_client_keepalive () =
  ignore
    (with_server (fun srv sock ->
         let s0 = S.stats srv in
         let c = S.Client.connect sock in
         Fun.protect
           ~finally:(fun () -> S.Client.close c)
           (fun () ->
             for _ = 1 to 5 do
               let code, _ =
                 S.Client.request_on c ~meth:"POST" ~path:"/query"
                   ~body:"path(a, X)" ()
               in
               check Alcotest.int "keep-alive query ok" 200 code
             done);
         let s1 = S.stats srv in
         check Alcotest.int "five requests served" 5
           (s1.S.st_requests - s0.S.st_requests);
         check Alcotest.int "over one connection" 1
           (s1.S.st_conns - s0.S.st_conns)))

let test_idle_timeout () =
  ignore
    (with_server
       ~cfg:(fun c -> { c with S.idle_timeout_s = 0.25 })
       (fun _srv sock ->
         let fd = raw_connect sock in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             write_all fd (raw_request "POST" "/query" "edge");
             let s, h, _, left = read_framed fd "" in
             check Alcotest.int "served before idling" 200 s;
             check
               Alcotest.(option string)
               "still keep-alive" (Some "keep-alive")
               (List.assoc_opt "connection" h);
             check Alcotest.string "no leftover" "" left;
             (* no second request: the server must hang up on its own *)
             let t0 = Unix.gettimeofday () in
             expect_eof fd;
             let dt = Unix.gettimeofday () -. t0 in
             check Alcotest.bool "closed by idle timeout, not instantly" true
               (dt < 2.5))))

let test_request_cap () =
  ignore
    (with_server
       ~cfg:(fun c -> { c with S.max_requests_per_conn = 2 })
       (fun _srv sock ->
         let c = S.Client.connect sock in
         Fun.protect
           ~finally:(fun () -> S.Client.close c)
           (fun () ->
             let code, _ =
               S.Client.request_on c ~meth:"POST" ~path:"/query" ~body:"edge"
                 ()
             in
             check Alcotest.int "request 1 ok" 200 code;
             let code, _ =
               S.Client.request_on c ~meth:"POST" ~path:"/query" ~body:"edge"
                 ()
             in
             check Alcotest.int "request 2 ok (capped after)" 200 code;
             match
               S.Client.request_on c ~meth:"POST" ~path:"/query" ~body:"edge"
                 ()
             with
             | _ -> Alcotest.fail "expected the cap to close the connection"
             | exception (Failure _ | Unix.Unix_error _) -> ())))

(* a half-sent request head must not hold a reader forever: past
   io_timeout_s it answers 400 and closes *)
let test_slowloris () =
  ignore
    (with_server
       ~cfg:(fun c -> { c with S.io_timeout_s = 0.3 })
       (fun _srv sock ->
         let fd = raw_connect sock in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             write_all fd "POST /query HTTP/1.1\r\ncontent-le";
             let t0 = Unix.gettimeofday () in
             let s, h, _, _ = read_framed fd "" in
             let dt = Unix.gettimeofday () -. t0 in
             check Alcotest.int "slowloris answered 400" 400 s;
             check
               Alcotest.(option string)
               "and closed" (Some "close")
               (List.assoc_opt "connection" h);
             check Alcotest.bool "bounded by io_timeout_s" true (dt < 2.5);
             expect_eof fd)))

(* content-length is 1*DIGIT: every other form OCaml's int_of_string
   reads as the right length (4, the body's), and a second header
   disagreeing with the first, is a framing error — 400, then close *)
let test_strict_content_length () =
  ignore
    (with_server (fun _srv sock ->
         let status lengths =
           let fd = raw_connect sock in
           Fun.protect
             ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
             (fun () ->
               write_all fd
                 (Printf.sprintf "POST /query HTTP/1.1\r\nhost: t\r\n%s\r\nedge"
                    (String.concat ""
                       (List.map (Printf.sprintf "content-length: %s\r\n")
                          lengths)));
               let s, h, _, _ = read_framed fd "" in
               if s = 400 then begin
                 check
                   Alcotest.(option string)
                   "bad content-length closes" (Some "close")
                   (List.assoc_opt "connection" h);
                 expect_eof fd
               end;
               s)
         in
         List.iter
           (fun (lengths, want) ->
             check Alcotest.int
               ("content-length " ^ String.concat " + " lengths)
               want (status lengths))
           [ ([ "0x4" ], 400); ([ "0_4" ], 400); ([ "+4" ], 400);
             ([ "0b100" ], 400); ([ "0o4" ], 400); ([ "4"; "5" ], 400);
             ([ "4" ], 200); ([ "4"; "4" ], 200) ]))

(* drain while a pipelined pair is buffered: both requests are
   answered, then the connection closes instead of waiting for more *)
let test_keepalive_drain () =
  ignore
    (with_server
       ~cfg:(fun c -> { c with S.debug_endpoints = true })
       (fun srv sock ->
         let fd = raw_connect sock in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             write_all fd
               (raw_request "POST" "/slow" "0.5"
               ^ raw_request "POST" "/query" "edge");
             Thread.delay 0.15;
             S.drain srv;
             let s1, _, _, left = read_framed fd "" in
             check Alcotest.bool "in-flight request answered" true (s1 > 0);
             let s2, h2, b2, left = read_framed fd left in
             check Alcotest.int "buffered pipeline finished under drain" 200
               s2;
             check Alcotest.int "with the right answer" 3
               (List.length (sorted_lines b2));
             check
               Alcotest.(option string)
               "then the connection closes" (Some "close")
               (List.assoc_opt "connection" h2);
             check Alcotest.string "nothing after the close" "" left;
             expect_eof fd)))

(* Pipelined windows: the server holds its answers until the
   connection would block for input (or they pass 64 KiB, or it
   closes), so a window that arrives in one read is answered with one
   write(2) — [st_writes] counts them. *)

let writes srv = (S.stats srv).S.st_writes

(* read [n] framed responses: [(status, body, wire length)] in order *)
let read_answers fd n =
  let rec go left acc k =
    if k = 0 then (List.rev acc, left)
    else
      let s, _, b, len, left = read_frame fd left in
      go left ((s, b, len) :: acc) (k - 1)
  in
  go "" [] n

let window_queries =
  [ "edge"; "path(a, X)"; "path(X, d)"; "edge(a, b)"; "path(b, X)";
    "path(X, Y)"; "edge(X, c)"; "path(c, d)"; "path(a, a)"; "edge(Y, X)";
    "path(X, c)"; "edge(c, X)"; "path"; "path(d, X)"; "edge(b, c)";
    "path(X, X)" ]

(* sixteen queries in one client write: the answers come back in
   order, each the one it gets on its own, in one server write *)
let test_window_one_write () =
  ignore
    (with_server (fun srv sock ->
         let alone = List.map (post sock "/query") window_queries in
         let fd = raw_connect sock in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             let w0 = writes srv in
             write_all fd
               (String.concat ""
                  (List.map (raw_request "POST" "/query") window_queries));
             let answers, left = read_answers fd (List.length window_queries) in
             check
               Alcotest.(list (pair int string))
               "in order, each as answered alone" alone
               (List.map (fun (s, b, _) -> (s, b)) answers);
             check Alcotest.string "nothing past the last answer" "" left;
             check Alcotest.int "one write for the window" 1 (writes srv - w0))))

(* a window cut inside a request, in its head and then in its body:
   the answers to the complete requests arrive before the client sends
   the rest. A server that waited for the rest first would deadlock
   with a client that reads before it writes again; the socket's 5 s
   receive timeout makes that a failure, not a hang *)
let test_window_cut_mid_request () =
  ignore
    (with_server (fun srv sock ->
         let fd = raw_connect sock in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             let r1 = raw_request "POST" "/query" "edge"
             and r2 = raw_request "POST" "/query" "path(a, X)"
             and r3 = raw_request "POST" "/query" "path(X, d)"
             and r4 = raw_request "POST" "/query" "path(b, X)" in
             let cut3 = 20 and cut4 = String.length r4 - 3 in
             let from s i = String.sub s i (String.length s - i) in
             let expect name n want =
               let answers, left = read_answers fd n in
               check
                 Alcotest.(list (pair int int))
                 name want
                 (List.map
                    (fun (s, b, _) -> (s, List.length (sorted_lines b)))
                    answers);
               check Alcotest.string (name ^ ": nothing more") "" left
             in
             let w0 = writes srv in
             write_all fd (r1 ^ r2 ^ String.sub r3 0 cut3);
             expect "the two complete requests" 2 [ (200, 3); (200, 3) ];
             check Alcotest.int "answered in one write" 1 (writes srv - w0);
             write_all fd (from r3 cut3 ^ String.sub r4 0 cut4);
             expect "the request completed in the next write" 1 [ (200, 3) ];
             write_all fd (from r4 cut4);
             expect "the request completed in its body" 1 [ (200, 2) ];
             check Alcotest.int "one write per wait" 3 (writes srv - w0))))

(* a store whose [big] answer is ~100 KB on the wire *)
let big_session () =
  let db = V.Database.create () in
  for i = 0 to 1799 do
    ignore
      (V.Database.add db "big"
         [| Kgm_common.Value.Int i; Kgm_common.Value.String (String.make 40 'x') |])
  done;
  fst (Inc.chase ~options ~db (V.Parser.parse_program tc_src))

(* the write(2)s of one window whose answers have these wire lengths:
   held until they pass 64 KiB, then written in 64 KiB pieces; the
   rest once the server waits for input *)
let expected_writes lengths =
  let out_max = 65536 in
  let held, n =
    List.fold_left
      (fun (held, n) len ->
        let held = held + len in
        if held >= out_max then (0, n + ((held + out_max - 1) / out_max))
        else (held, n))
      (0, 0) lengths
  in
  n + if held > 0 then 1 else 0

(* two answers past 64 KiB between small ones, pipelined: every answer
   comes back intact, and the big ones do not wait for the window's
   end — 5 writes here, where one write per answer makes 7 and one
   flush per window 3 *)
let test_window_past_64k () =
  ignore
    (with_server ~session:(big_session ()) (fun srv sock ->
         let window = [ "edge"; "big"; "path(a, X)"; "big"; "edge(a, X)" ] in
         let alone = List.map (post sock "/query") window in
         let fd = raw_connect sock in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             let w0 = writes srv in
             write_all fd
               (String.concat "" (List.map (raw_request "POST" "/query") window));
             let answers, left = read_answers fd (List.length window) in
             check
               Alcotest.(list (pair int string))
               "every answer intact" alone
               (List.map (fun (s, b, _) -> (s, b)) answers);
             check Alcotest.int "1800 big facts" 1800
               (List.length (sorted_lines (snd (List.nth alone 1))));
             check Alcotest.string "nothing past the last answer" "" left;
             let lengths = List.map (fun (_, _, len) -> len) answers in
             check Alcotest.bool "big answers past 64 KiB" true
               (List.for_all (fun len -> len > 65536 && len < 2 * 65536)
                  [ List.nth lengths 1; List.nth lengths 3 ]);
             let n = writes srv - w0 in
             check Alcotest.bool "at least two writes" true (n >= 2);
             check Alcotest.int "flushed past 64 KiB, the rest at the end"
               (expected_writes lengths) n)))

(* a base numbered below a generation already in the directory is
   refused before anything is written — rotation keeps the newest
   generations and would delete it; the newest epoch again, and a
   newer one, are written *)
let test_save_session_refuses_older () =
  let dir = fresh_dir "older" in
  let session = mk_session tc_src in
  List.iter
    (fun epoch -> ignore (S.save_session ~dir ~keep:3 ~epoch session))
    [ 5; 6; 7 ];
  let contents () =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f -> (f, Digest.to_hex (Digest.file (Filename.concat dir f))))
  in
  let before = contents () in
  (match S.save_session ~dir ~keep:3 ~epoch:2 session with
  | _ -> Alcotest.fail "epoch 2 below generation 7 was written"
  | exception Kgm_common.Kgm_error.Error e ->
      check Alcotest.bool "a storage error" true
        (e.Kgm_common.Kgm_error.stage = Kgm_common.Kgm_error.Storage);
      check
        Alcotest.(option string)
        "naming the newer generation"
        (Some (R.Snapshot.path ~dir ~kind:"session" ~seq:7))
        (List.assoc_opt "path" e.Kgm_common.Kgm_error.context));
  check
    Alcotest.(list (pair string string))
    "the directory is unchanged" before (contents ());
  ignore (S.save_session ~dir ~keep:3 ~epoch:7 session);
  check
    Alcotest.(list int)
    "the newest epoch again replaces it" [ 5; 6; 7 ]
    (List.map fst (R.Snapshot.list ~dir ~kind:"session"));
  let path = S.save_session ~dir ~keep:3 ~epoch:8 session in
  check Alcotest.bool "epoch 8 written" true (Sys.file_exists path);
  check
    Alcotest.(list int)
    "and generation 5 rotated away" [ 6; 7; 8 ]
    (List.map fst (R.Snapshot.list ~dir ~kind:"session"))

(* ------------------------------------------------------------------ *)
(* The write path in O(batch): publish by replay onto the twin store,
   persist by append, and what readers and recovery see of it. *)

(* the Company-KG ownership chains of the serving benchmarks:
   v0 -> ... -> v4 (own weight 0.6, company/1 on every vertex), a seed
   on the head of chains 0-3 and of every eighth chain, so reach and
   control (Ex. 4.2, a monotonic sum) derive only below seeded heads
   and the chase stays linear in the graph. Chains 0-3 start with
   their edge 3 missing. *)
let chain_len = 5

let chain_rules =
  {|reach(X, Y) :- seed(X), own(X, Y, W), W > 0.0.
reach(X, Z) :- reach(X, Y), own(Y, Z, W), W > 0.0.
controls(X, X) :- seed(X).
controls(X, Y) :- controls(X, Z), own(Z, Y, W), V = sum(W, <Z>), V > 0.5.|}

let chain_session ~facts =
  let module Value = Kgm_common.Value in
  let chains = max 8 (facts / ((2 * chain_len) - 1)) in
  let db = V.Database.create () in
  for c = 0 to chains - 1 do
    for i = 0 to chain_len - 1 do
      let v = (c * chain_len) + i in
      ignore (V.Database.add db "company" [| Value.Int v |]);
      if i < chain_len - 1 && not (c < 4 && i = 3) then
        ignore
          (V.Database.add db "own"
             [| Value.Int v; Value.Int (v + 1); Value.Float 0.6 |])
    done;
    if c < 4 || c mod 8 = 0 then
      ignore (V.Database.add db "seed" [| Value.Int (c * chain_len) |])
  done;
  fst (Inc.chase ~options ~db (V.Parser.parse_program chain_rules))

(* 8-line batches moving the missing edge of chains 0-3 between
   positions 3 and 1: the same text, and the same repair, whatever the
   size of the rest of the graph *)
let chain_batch k =
  let edge c i =
    let v = (c * chain_len) + i in
    Printf.sprintf "own(%d, %d, 0.6).\n" v (v + 1)
  in
  let cut, heal = if k mod 2 = 1 then (1, 3) else (3, 1) in
  String.concat ""
    (List.concat_map
       (fun c -> [ "-" ^ edge c cut; "+" ^ edge c heal ])
       [ 0; 1; 2; 3 ])

(* every journal event, collected from any domain *)
let journal_events () =
  let jr = Kgm_telemetry.Journal.create () in
  let evs = ref [] in
  Kgm_telemetry.Journal.tap jr (fun ev -> evs := ev :: !evs);
  (jr, fun ty ->
    List.filter (fun ev -> ev.Kgm_telemetry.Journal.ev_type = ty) (List.rev !evs))

let int_field ev k =
  match Kgm_telemetry.Journal.int_field ev k with
  | Some n -> n
  | None -> Alcotest.fail ("journal event without " ^ k)

let update_ok sock body =
  let code, answer = post sock "/update" body in
  if code <> 200 then Alcotest.fail ("update answered " ^ answer);
  answer

(* update-to-visible in O(batch): the same batches against a ten
   times larger store publish by replaying the same number of
   operations, copy nothing, and append the same number of bytes *)
let test_write_path_is_o_batch () =
  let batches = List.init 4 (fun k -> chain_batch (k + 1)) in
  let run facts =
    let jr, events = journal_events () in
    let telemetry = Kgm_telemetry.create () in
    let dir = fresh_dir (Printf.sprintf "obatch_%d" facts) in
    ignore
      (with_server ~session:(chain_session ~facts) ~telemetry ~journal:jr
         ~cfg:(fun c -> { c with S.state_dir = Some dir })
         (fun _srv sock ->
           List.iter (fun b -> ignore (update_ok sock b)) batches;
           (* the server times its own write path: one sample per
              batch, and persist's base at start *)
           let _, metrics = get sock "/metrics" in
           let n = List.length batches in
           List.iter
             (fun (stage, count) ->
               let line =
                 Printf.sprintf "kgm_server_%s_seconds_count %d" stage count
               in
               check Alcotest.bool (line ^ " exported") true
                 (List.mem line (String.split_on_char '\n' metrics)))
             [ ("maintain", n); ("publish", n); ("persist", n + 1) ]));
    let appends =
      List.filter
        (fun ev -> Kgm_telemetry.Journal.str_field ev "kind" = Some "append")
        (events "server.checkpoint")
    in
    ( List.map (fun ev -> (int_field ev "replayed", int_field ev "copied"))
        (events "server.swap"),
      List.map (fun ev -> int_field ev "bytes") appends,
      List.map (fun ev -> int_field ev "facts") (events "server.swap") )
  in
  let small, small_bytes, small_facts = run 20_000 in
  let large, large_bytes, large_facts = run 200_000 in
  check Alcotest.int "one swap per batch" (List.length batches)
    (List.length small);
  check Alcotest.bool "the large store is ~10x the small one" true
    (List.hd large_facts > 8 * List.hd small_facts);
  List.iteri
    (fun k ((rs, cs), (rl, cl)) ->
      let tag what = Printf.sprintf "batch %d: %s" (k + 1) what in
      check Alcotest.int (tag "nothing copied (small)") 0 cs;
      check Alcotest.int (tag "nothing copied (large)") 0 cl;
      check Alcotest.bool (tag "the batch's operations replayed") true (rs > 0);
      check Alcotest.int (tag "same replay at both sizes") rs rl)
    (List.combine small large);
  check Alcotest.int "every batch appended (small)" (List.length batches)
    (List.length small_bytes);
  check Alcotest.(list int) "same appended bytes at both sizes" small_bytes
    large_bytes

(* The session base streams the EDB in chunks: a base of several
   chunks recovers the same session, and a base of the previous format
   fails closed, naming its version *)
let test_session_base_format () =
  let program = V.Parser.parse_program chain_rules in
  let session = chain_session ~facts:12_000 in
  let edb = Inc.edb_facts session in
  check Alcotest.bool "the EDB spans several chunks" true
    (List.length edb > 2 * 4096);
  let dir = fresh_dir "base_v4" in
  ignore (S.save_session ~dir ~keep:3 ~epoch:7 session);
  (match S.recover ~options ~dir [ program ] with
   | Some (st, epoch, _) ->
       check Alcotest.int "epoch" 7 epoch;
       check Alcotest.bool "same EDB, same order" true (Inc.edb_facts st = edb);
       check Alcotest.bool "same facts" true (canon st = canon session)
   | None -> Alcotest.fail "the base did not recover");
  let old = fresh_dir "base_v3" in
  R.Snapshot.save ~kind:"session" ~version:3
    ~path:(R.Snapshot.path ~dir:old ~kind:"session" ~seq:7)
    (S.fingerprint [ program ], 7, edb);
  let jr, events = journal_events () in
  check Alcotest.bool "nothing recovered from a v3 base" true
    (S.recover ~options ~journal:jr ~dir:old [ program ] = None);
  match events "server.recover.reject" with
  | [ ev ] ->
      check
        Alcotest.(option string)
        "rejected, naming its version"
        (Some "[storage] snapshot version 3 not supported (want 4)")
        (Kgm_telemetry.Journal.str_field ev "error")
  | evs ->
      Alcotest.fail
        (Printf.sprintf "expected one rejected generation, got %d"
           (List.length evs))

(* A server started, as after an upgrade, over a directory whose [keep]
   newest generations recovery rejects (bases of the previous format)
   numbers its session past them: its first base is the directory's
   newest generation, rotation removes the rejected ones in their turn,
   and a restart recovers the batches the server acknowledged *)
let test_start_over_rejected_generations () =
  let program = V.Parser.parse_program tc_src in
  let dir = fresh_dir "rejected" and keep = 3 in
  let session = mk_session tc_src in
  List.iter
    (fun seq ->
      R.Snapshot.save ~kind:"session" ~version:3
        ~path:(R.Snapshot.path ~dir ~kind:"session" ~seq)
        (S.fingerprint [ program ], seq, Inc.edb_facts session))
    [ 5; 6; 7 ];
  check Alcotest.bool "recovery rejects every generation" true
    (S.recover ~options ~dir [ program ] = None);
  let jr, events = journal_events () in
  let live = ref [] in
  let stats =
    with_server ~session ~journal:jr
      ~cfg:(fun c -> { c with S.state_dir = Some dir; keep })
      (fun _srv sock ->
        ignore (update_ok sock "+edge(d, e).\n");
        live := canon session)
  in
  check Alcotest.int "epochs continue past the rejected generations" 9
    stats.S.st_epoch;
  check
    Alcotest.(list (pair int string))
    "base at start, an append, base at drain"
    [ (8, "base"); (9, "append"); (9, "base") ]
    (List.map
       (fun ev ->
         ( int_field ev "epoch",
           Option.value ~default:"?"
             (Kgm_telemetry.Journal.str_field ev "kind") ))
       (events "server.checkpoint"));
  check
    Alcotest.(list int)
    "the newest [keep] generations are the server's and one rejected"
    [ 7; 8; 9 ]
    (List.map fst (R.Snapshot.list ~dir ~kind:"session"));
  match S.recover ~options ~dir [ program ] with
  | Some (st, epoch, path) ->
      check Alcotest.int "recovered epoch" 9 epoch;
      check Alcotest.string "from the drain's base"
        (R.Snapshot.path ~dir ~kind:"session" ~seq:9)
        path;
      check Alcotest.bool "the acknowledged facts" true (canon st = !live)
  | None -> Alcotest.fail "nothing recovered"

(* One maintenance pool per server: serving a 40-edge closure at jobs 2,
   every one-edge insert fans its rounds out, and only the first starts
   a domain *)
let test_one_maintenance_pool () =
  let src =
    String.concat ""
      (List.init 39 (fun i -> Printf.sprintf "edge(%d, %d). " (i + 1) (i + 2)))
    ^ "edge(40, 1).\n\
       tc(X, Y) :- edge(X, Y).\n\
       tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
  in
  let session, _ =
    Inc.chase
      ~options:{ V.Engine.default_options with V.Engine.jobs = 2 }
      (V.Parser.parse_program src)
  in
  let telemetry = Kgm_telemetry.create () in
  let spawned sock =
    let _, metrics = get sock "/metrics" in
    let name = "kgm_engine_pool_spawned_total " in
    let n = String.length name in
    match
      List.find_opt
        (fun l -> String.length l > n && String.sub l 0 n = name)
        (String.split_on_char '\n' metrics)
    with
    | Some l -> int_of_string (String.sub l n (String.length l - n))
    | None -> 0
  in
  ignore
    (with_server ~session ~telemetry (fun _srv sock ->
         ignore (update_ok sock "+edge(40, 41).");
         let after_one = spawned sock in
         ignore (update_ok sock "+edge(41, 42).");
         ignore (update_ok sock "+edge(42, 43).");
         check Alcotest.int "the first fan-out batch starts one domain" 1
           after_one;
         check Alcotest.int "later batches start none" after_one
           (spawned sock)))

(* Reader domains query while a writer streams random batches: every
   answer equals an offline chase of the EDB at the epoch the answer is
   stamped with *)
let test_epoch_answers_match_offline () =
  let module Value = Kgm_common.Value in
  let vs = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let program = V.Parser.parse_program tc_src in
  let rules = { program with V.Rule.facts = [] } in
  let initial =
    List.map (fun (p, args) -> (p, Array.of_list args)) program.V.Rule.facts
  in
  let edbs = Hashtbl.create 64 in
  Hashtbl.replace edbs 0 initial;
  (* what the reader threads saw, and what went wrong there: a failed
     check in a thread would only end that thread *)
  let seen = ref [] and errors = ref [] and seen_mu = Mutex.create () in
  let writer_done = Atomic.make false in
  ignore
    (with_server
       ~cfg:(fun c -> { c with S.workers = 3 })
       (fun _srv sock ->
         let reader () =
           let fd = raw_connect sock in
           Fun.protect
             ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
             (fun () ->
               let pending = ref "" in
               let n = ref 0 in
               while (not (Atomic.get writer_done)) || !n < 20 do
                 write_all fd (raw_request "POST" "/query" "path");
                 let status, headers, body, left = read_framed fd !pending in
                 pending := left;
                 incr n;
                 Mutex.protect seen_mu (fun () ->
                     match List.assoc_opt "x-kgm-epoch" headers with
                     | Some e when status = 200 ->
                         seen := (int_of_string e, sorted_lines body) :: !seen
                     | _ ->
                         errors := Printf.sprintf "query answered %d" status :: !errors)
               done)
         in
         let readers = List.init 2 (fun _ -> Thread.create reader ()) in
         let rng = Random.State.make [| 14 |] in
         let edb = ref initial in
         for _ = 1 to 30 do
           let line () =
             let x = List.nth vs (Random.State.int rng 6)
             and y = List.nth vs (Random.State.int rng 6) in
             let f = ("edge", [| Value.String x; Value.String y |]) in
             if Random.State.bool rng then (`Ins, f) else (`Ret, f)
           in
           let batch = List.init (1 + Random.State.int rng 3) (fun _ -> line ()) in
           let text =
             String.concat ""
               (List.map
                  (fun (sign, (_, f)) ->
                    Printf.sprintf "%sedge(%s, %s).\n"
                      (if sign = `Ins then "+" else "-")
                      (Value.to_string f.(0)) (Value.to_string f.(1)))
                  batch)
           in
           let answer = update_ok sock text in
           let epoch = Scanf.sscanf answer "ok epoch=%d" Fun.id in
           let same (p, f) (q, g) = p = q && Array.for_all2 Value.equal f g in
           let ins, ret = S.Batch.split batch in
           let kept = List.filter (fun pf -> not (List.exists (same pf) ret)) !edb in
           edb :=
             List.fold_left
               (fun acc pf -> if List.exists (same pf) acc then acc else acc @ [ pf ])
               kept ins;
           Hashtbl.replace edbs epoch !edb;
           Thread.delay 0.002
         done;
         Atomic.set writer_done true;
         List.iter Thread.join readers));
  let expected = Hashtbl.create 64 in
  let offline epoch =
    match Hashtbl.find_opt expected epoch with
    | Some lines -> lines
    | None ->
        let db = V.Database.create () in
        List.iter (fun (p, f) -> ignore (V.Database.add db p f)) (Hashtbl.find edbs epoch);
        ignore (V.Engine.run ~options rules db);
        let lines =
          List.map
            (fun f ->
              Printf.sprintf "path(%s)."
                (String.concat ", " (Array.to_list (Array.map Value.to_string f))))
            (V.Database.facts db "path")
          |> List.sort compare
        in
        Hashtbl.replace expected epoch lines;
        lines
  in
  check Alcotest.(list string) "every query answered" [] !errors;
  check Alcotest.bool "readers answered from several epochs" true
    (List.length (List.sort_uniq compare (List.map fst !seen)) > 1);
  List.iter
    (fun (epoch, lines) ->
      check Alcotest.(list string)
        (Printf.sprintf "answer at epoch %d = offline chase of its EDB" epoch)
        (offline epoch) lines)
    !seen

(* a swap that exhausts its retries leaves the previous epoch visible;
   the master's recorded operations stay pending and the next publish
   replays them together with its own batch's *)
let test_failed_swap_replays_later () =
  let b1 = "+edge(d, e).\n" and b2 = "+edge(e, f).\n" in
  let replays faulty =
    let jr, events = journal_events () in
    ignore
      (with_server ~journal:jr (fun _srv sock ->
           (match
              if faulty then
                R.Faults.with_spec "swap:1.0" (fun () -> post sock "/update" b1)
              else post sock "/update" b1
            with
           | 200, _ when not faulty -> ()
           | 500, _ when faulty ->
               check Alcotest.string "the failed swap left epoch 0 visible"
                 "0\n" (snd (get sock "/epoch"));
               check Alcotest.(list string) "and its answers" []
                 (sorted_lines (snd (post sock "/query" "path(d, X)")))
           | code, body ->
               Alcotest.fail (Printf.sprintf "batch 1 answered %d: %s" code body));
           ignore (update_ok sock b2);
           check
             Alcotest.(list string)
             "both batches visible after the next publish"
             [ {|path("d", "e").|}; {|path("d", "f").|} ]
             (sorted_lines (snd (post sock "/query" "path(d, X)")))));
    List.map (fun ev -> int_field ev "replayed") (events "server.swap")
  in
  match (replays false, replays true) with
  | [ r1; r2 ], [ r ] ->
      check Alcotest.int "one replay carries both batches' operations"
        (r1 + r2) r
  | clean, faulty ->
      Alcotest.fail
        (Printf.sprintf "expected 2 clean swaps and 1 after a failed one, got %d and %d"
           (List.length clean) (List.length faulty))

(* a crash at this instant: every acknowledged batch was flushed, so a
   copy of the directory is what a kill -9 would leave *)
let crash_copy dir name =
  let dst = fresh_dir name in
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc (really_input_string ic (in_channel_length ic));
      close_in ic;
      close_out oc)
    (Sys.readdir dir);
  dst

let rewrite path f =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f s);
  close_out oc

(* Recovery from a session abandoned without drain: the acknowledged
   batches come back from base + log; a torn last record is dropped; a
   corrupt earlier record rejects its generation for the previous one;
   a failed append makes the next persist write a base *)
let test_recover_without_drain () =
  let facts = 2_000 in
  let program = V.Parser.parse_program chain_rules in
  let dir = fresh_dir "nodrain" in
  (* the expected materialization after each batch, offline *)
  let reference = chain_session ~facts in
  let canon_at = Hashtbl.create 8 in
  Hashtbl.replace canon_at 0 (canon reference);
  for k = 1 to 6 do
    let inserts, retracts = S.Batch.split (S.Batch.parse (chain_batch k)) in
    ignore (Inc.maintain reference ~inserts ~retracts);
    Hashtbl.replace canon_at k (canon reference)
  done;
  let jr, events = journal_events () in
  let after_two = ref "" and after_six = ref "" in
  ignore
    (with_server ~session:(chain_session ~facts) ~journal:jr
       ~cfg:(fun c -> { c with S.state_dir = Some dir; keep = 3 })
       (fun _srv sock ->
         ignore (update_ok sock (chain_batch 1));
         ignore (update_ok sock (chain_batch 2));
         after_two := crash_copy dir "nodrain_2";
         (* every write of batch 3's persist fails: its append, then the
            base that replaces it *)
         ignore
           (R.Faults.with_spec "checkpoint_write:1.0" (fun () ->
                update_ok sock (chain_batch 3)));
         List.iter (fun k -> ignore (update_ok sock (chain_batch k))) [ 4; 5; 6 ];
         after_six := crash_copy dir "nodrain_6"));
  let kinds =
    List.map
      (fun ev ->
        ( int_field ev "epoch",
          Option.value ~default:"?" (Kgm_telemetry.Journal.str_field ev "kind") ))
      (events "server.checkpoint")
  in
  check
    Alcotest.(list (pair int string))
    "base at start, appends, a base after the failed append, base at drain"
    [ (0, "base"); (1, "append"); (2, "append"); (4, "base"); (5, "append");
      (6, "append"); (6, "base") ]
    kinds;
  let recovers ?(journal = Kgm_telemetry.Journal.null) what dir epoch =
    match S.recover ~options ~journal ~dir [ program ] with
    | Some (st, ep, _) ->
        check Alcotest.int (what ^ ": epoch") epoch ep;
        check Alcotest.bool (what ^ ": facts of that epoch") true
          (canon st = Hashtbl.find canon_at epoch)
    | None -> Alcotest.fail (what ^ ": nothing recovered")
  in
  recovers "abandoned after 2 batches" !after_two 2;
  recovers "abandoned after 6 batches (one failed append)" !after_six 6;
  let log4 dir = Filename.concat dir "session-000004.log" in
  let torn = crash_copy !after_six "nodrain_torn" in
  rewrite (log4 torn) (fun s -> String.sub s 0 (String.length s - 3));
  recovers "torn last record" torn 5;
  let flipped = crash_copy !after_six "nodrain_flip" in
  (* a byte inside record 5's payload, record 6 after it *)
  rewrite (log4 flipped) (fun s ->
      let i = String.index s '\n' + 10 in
      String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s);
  let jr, events = journal_events () in
  recovers ~journal:jr "corrupt earlier record" flipped 2;
  match events "server.recover.reject" with
  | [ ev ] ->
      check
        Alcotest.(option string)
        "rejected with a storage error on the log"
        (Some "[storage] log record payload corrupt (digest mismatch)")
        (Kgm_telemetry.Journal.str_field ev "error")
  | evs ->
      Alcotest.fail
        (Printf.sprintf "expected one rejected generation, got %d"
           (List.length evs))

(* A generated stream, of the kind the incremental suite checks against
   its list model, served through /update with a state directory: an
   acknowledged batch reports the model's counts, a batch that fails
   changes nothing, and a crash copy of the state directory recovers
   the live session's facts. An empty batch at the end re-chases a
   session the last batch may have left torn. *)
let test_generated_stream_recovers () =
  let module G = Gen_batches in
  let program = V.Parser.parse_program G.control.G.src in
  let steps =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 23 |])
      (QCheck.Gen.list_repeat 16 (G.step G.control))
  in
  (* halfway, a batch that fails for sure: its insert is its first write *)
  let doomed =
    ([ (`Ins, ("company", [| Kgm_common.Value.String "z" |])) ], Some "db_insert:1.0")
  in
  let steps =
    List.filteri (fun i _ -> i < 8) steps
    @ (doomed :: List.filteri (fun i _ -> i >= 8) steps)
  in
  let dir = fresh_dir "stream" in
  let session = mk_session G.control.G.src in
  let model = ref (G.initial_edb program) in
  let failed = ref 0 and crashed = ref "" and live = ref [] in
  ignore
    (with_server ~session
       ~cfg:(fun c -> { c with S.state_dir = Some dir })
       (fun _srv sock ->
         let send ?fault lines =
           let text = G.text lines in
           match G.under fault (fun () -> post sock "/update" text) with
           | 200, answer ->
               let edb, retracted, inserted = G.apply !model (S.Batch.split lines) in
               model := edb;
               check
                 Alcotest.(pair int int)
                 ("inserted, retracted by\n" ^ text)
                 (inserted, retracted)
                 (Scanf.sscanf answer "ok epoch=%_d inserted=%d retracted=%d"
                    (fun i r -> (i, r)));
               true
           | _ ->
               incr failed;
               false
         in
         List.iter (fun (lines, fault) -> ignore (send ?fault lines)) steps;
         let rec settle n = send [] || (n > 1 && settle (n - 1)) in
         check Alcotest.bool "an empty batch is acknowledged" true (settle 5);
         check
           Alcotest.(list string)
           "the live EDB is the model's" (G.grouped !model)
           (G.grouped (Inc.edb_facts session));
         live := canon session;
         crashed := crash_copy dir "stream_crash"));
  check Alcotest.bool "some batch of the stream failed" true (!failed > 0);
  match S.recover ~options ~dir:!crashed [ program ] with
  | Some (st, _, _) ->
      check Alcotest.bool "recovered = the live session" true (canon st = !live)
  | None -> Alcotest.fail "nothing recovered"

(* A pattern the chase never indexed is built into the epoch's
   side-car cache by the query that needs it; the next publish
   prepares it on the master, and the one after on its twin, so after
   two batches the session's store has the index itself *)
let test_query_patterns_prepared () =
  let session = mk_session tc_src in
  let indexed () = V.Database.indexed_patterns (Inc.db session) "edge" in
  check Alcotest.bool "the chase never indexed edge(_, Y)" false
    (List.mem [ 1 ] (indexed ()));
  ignore
    (with_server ~session (fun _srv sock ->
         let _, body = post sock "/query" "edge(X, d)" in
         check Alcotest.(list string) "answer" [ "edge(\"c\", \"d\")." ]
           (sorted_lines body);
         ignore (update_ok sock "+edge(d, e).\n");
         ignore (update_ok sock "+edge(e, f).\n")));
  check Alcotest.bool "prepared on the session's store" true
    (List.mem [ 1 ] (indexed ()))

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "batch: parse + split + errors." `Quick
      test_batch_parse;
    Alcotest.test_case "queries over a live socket." `Quick test_queries;
    Alcotest.test_case "updates swap epochs." `Quick test_update_epochs;
    Alcotest.test_case "per-request deadlines answer 504." `Quick
      test_deadline;
    Alcotest.test_case "a client hanging up does not stop the server." `Quick
      test_client_hangup;
    Alcotest.test_case "overload sheds with 503, never hangs." `Quick
      test_overload_shedding;
    Alcotest.test_case "drain matrix: SIGTERM x in-flight x faults." `Quick
      test_drain_matrix;
    Alcotest.test_case "recovery from every generation." `Quick
      test_recover_every_generation;
    Alcotest.test_case "session snapshots rotate." `Quick
      test_save_session_rotates;
    Alcotest.test_case "recovery respects retracted program facts." `Quick
      test_recover_respects_retracted_program_facts;
    Alcotest.test_case "keep-alive: pipelined requests carry over." `Quick
      test_pipelining;
    Alcotest.test_case "keep-alive: one connection, many requests." `Quick
      test_client_keepalive;
    Alcotest.test_case "keep-alive: idle timeout closes." `Quick
      test_idle_timeout;
    Alcotest.test_case "keep-alive: request cap closes." `Quick
      test_request_cap;
    Alcotest.test_case "slowloris: partial head times out." `Quick
      test_slowloris;
    Alcotest.test_case "content-length: decimal digits only." `Quick
      test_strict_content_length;
    Alcotest.test_case "keep-alive x drain: pipeline finishes, then close."
      `Quick test_keepalive_drain;
    Alcotest.test_case "pipelining: a window answered in one write." `Quick
      test_window_one_write;
    Alcotest.test_case "pipelining: a window cut mid-request, no deadlock."
      `Quick test_window_cut_mid_request;
    Alcotest.test_case "pipelining: answers past 64 KiB flush early." `Quick
      test_window_past_64k;
    Alcotest.test_case "session base: an older epoch is refused." `Quick
      test_save_session_refuses_older;
    Alcotest.test_case "write path is O(batch): replay, no copy, append."
      `Quick test_write_path_is_o_batch;
    Alcotest.test_case "one maintenance pool per server." `Quick
      test_one_maintenance_pool;
    Alcotest.test_case "session base: chunked v4, v3 fails closed." `Quick
      test_session_base_format;
    Alcotest.test_case "start over rejected generations: numbered past them."
      `Quick test_start_over_rejected_generations;
    Alcotest.test_case "epoch answers = offline chase of the epoch's EDB."
      `Quick test_epoch_answers_match_offline;
    Alcotest.test_case "recovery without drain: log, torn tail, fallback."
      `Quick test_recover_without_drain;
    Alcotest.test_case "generated stream: counts, failures, crash recovery."
      `Quick test_generated_stream_recovers;
    Alcotest.test_case "a failed swap's operations replay at the next one."
      `Quick test_failed_swap_replays_later;
    Alcotest.test_case "queried patterns are prepared at later publishes."
      `Quick test_query_patterns_prepared ]
