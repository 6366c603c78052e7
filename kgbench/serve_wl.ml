(* The serve-read and serve-update workloads: a [kgmodel serve] child
   process on the Chains graph, driven over its Unix socket by load
   generators in this process, every answer checked against an offline
   oracle. The traced pass replays the server's start-up and update
   paths in process through the layers' public functions. *)

open Kgm_common
module V = Kgm_vadalog
module DB = Kgm_vadalog.Database
module Inc = Kgm_vadalog.Incremental
module O = Outcome

let now = Kgm_telemetry.Clock.now

type cfg = {
  cli : string;  (** the kgmodel CLI executable *)
  nproc : int;
  seed : int;
  seconds : float;
  facts : int;  (** target size of the served database *)
  setups : int;  (** server start-ups timed per run *)
}

let sock = "kgm.sock"

(* chains moved per update batch (two lines each): two moves of each
   kind; update latency read the same at 2, 4 and 8 (README, "Traffic
   constants") *)
let batch_chains = 4

(* open-loop reads per second beside the writer: inside the range where
   neither update latency nor read p99 moved with the rate, and about 1%
   of serve-read's closed-loop capacity (README, "Traffic constants") *)
let read_rate = 500.

(* ---- the server child process ---- *)

type server = { pid : int; mutable alive : bool }

let live : server list ref = ref []

let reap srv =
  if srv.alive then begin
    srv.alive <- false;
    live := List.filter (fun s -> s != srv) !live;
    match Unix.waitpid [] srv.pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  end
  else false

(* no child outlives the benchmark, whatever path it exits by *)
let () =
  at_exit (fun () ->
      List.iter
        (fun s ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap s))
        !live)

let spawn cfg ~program ~state_dir =
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile "server.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let n = string_of_int cfg.nproc in
  let args =
    [ cfg.cli; "serve"; program; "--sock"; sock; "--workers"; n; "--jobs"; n ]
    @ match state_dir with Some d -> [ "--state-dir"; d ] | None -> []
  in
  let pid =
    Unix.create_process cfg.cli (Array.of_list args) Unix.stdin log log
  in
  Unix.close log;
  let srv = { pid; alive = true } in
  live := srv :: !live;
  srv

let with_conn f =
  let c = Http.connect sock in
  Fun.protect ~finally:(fun () -> Http.close c) (fun () -> f c)

(* spawn -> first 200 on /ready; None when the server died or never
   answered *)
let wait_ready srv ~t0 =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | p, _ when p = srv.pid ->
        srv.alive <- false;
        live := List.filter (fun s -> s != srv) !live;
        None
    | _ ->
        let ready =
          try with_conn (fun c -> (Http.request c ~meth:"GET" ~path:"/ready" "").status = 200)
          with Unix.Unix_error _ | Http.Closed -> false
        in
        if ready then Some (now () -. t0)
        else if now () -. t0 > 100. then None
        else begin
          Unix.sleepf 0.002;
          go ()
        end
  in
  go ()

(* graceful drain: SIGTERM, then the exit status must be 0 *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap srv

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> 0.
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* a server and its spawn -> ready time *)
let start cfg ~program ~state_dir =
  let t0 = now () in
  let srv = spawn cfg ~program ~state_dir in
  match wait_ready srv ~t0 with
  | Some dt -> (srv, dt)
  | None ->
      ignore (stop srv);
      failwith "the server never became ready (see server.log)"

let status_counts () =
  let body = with_conn (fun c -> (Http.request c ~meth:"GET" ~path:"/status" "").body) in
  List.filter_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i -> (
          match int_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1))) with
          | Some v -> Some (String.sub l 0 i, v)
          | None -> None)
      | None -> None)
    (String.split_on_char '\n' body)

(* ---- queries ---- *)

type mix = {
  queries : Chains.query array;
  raw : string array;  (** encoded POST /query requests *)
  qid : int array;  (** distinct-query id of each entry *)
  distinct : Chains.query array;
}

let make_mix ~seed t n =
  let queries = Chains.mix ~seed t n in
  let ids = Hashtbl.create 4096 and distinct = ref [] in
  let qid =
    Array.map
      (fun q ->
        match Hashtbl.find_opt ids q with
        | Some i -> i
        | None ->
            let i = Hashtbl.length ids in
            Hashtbl.replace ids q i;
            distinct := q :: !distinct;
            i)
      queries
  in
  { queries;
    raw =
      Array.map
        (fun q -> Http.encode ~meth:"POST" ~path:"/query" (Chains.query_text q))
        queries;
    qid;
    distinct = Array.of_list (List.rev !distinct) }

(* a request that survives the server's per-connection request cap *)
let send conn raw =
  let r = Http.send !conn raw in
  if not r.Http.keep then begin
    Http.close !conn;
    conn := Http.connect sock
  end;
  r

(* Queries per pipelined window in serve-read: a client writes a window
   at once, then reads its answers. Sent one at a time, a query's round
   trip on the 2-vCPU host was mostly two cross-process wake-ups, whose
   cost follows the load of other tenants: over nine runs the 1st
   percentile spread by 0.2 of its median. With windows of 16 the
   server's read path does most of the work, and three interleaved runs
   read within 5% of each other. 16 divides the server's per-connection
   request cap (10 000), so a window never straddles a reconnect. *)
let window = 16

(* Load blocks of serve-read (Calib): a second each, the first a
   warm-up (the server's parse and index caches) whose windows are not
   recorded. *)
let read_block_s = 1.0
let warm_blocks = 1

(* One closed-loop client: windows back to back from [start] in the
   mix while the gate's blocks run; records each window's round trip
   and block (after the warm-up) and the first answer of every distinct
   query, and fails any later answer that differs from it (the database
   never changes under serve-read). *)
type client = {
  c_out : O.t;
  c_lat : Bstats.Buf.t;  (** window round trips *)
  c_blk : Bstats.Buf.t;  (** the block of each *)
  c_first : string option array;
}

let closed_loop gate mix ~start =
  let cl =
    { c_out = O.create (); c_lat = Bstats.Buf.create (); c_blk = Bstats.Buf.create ();
      c_first = Array.make (Array.length mix.distinct) None }
  in
  let n = Array.length mix.raw in
  (try
     let conn = ref (Http.connect sock) in
     Fun.protect ~finally:(fun () -> Http.close !conn) @@ fun () ->
     let i = ref start in
     let rec next () =
       let b = Calib.enter gate in
       if b > 0 then begin
         Fun.protect ~finally:(fun () -> Calib.leave gate) (fun () -> window_op b);
         next ()
       end
     and window_op b =
       let ks = Array.init window (fun j -> (!i + j) mod n) in
       i := !i + window;
       let raws = Array.map (fun k -> mix.raw.(k)) ks in
       let t0 = now () in
       let rs = Http.send_window !conn raws in
       let t1 = now () in
       O.attempt cl.c_out window;
       if b > warm_blocks then begin
         Bstats.Buf.add cl.c_lat (t1 -. t0);
         Bstats.Buf.add cl.c_blk (float_of_int b)
       end;
       Array.iteri
         (fun j (r : Http.response) ->
           let k = ks.(j) in
           if r.status <> 200 then
             O.fail cl.c_out "%s answered %d" (Chains.query_text mix.queries.(k)) r.status
           else
             let id = mix.qid.(k) in
             match cl.c_first.(id) with
             | None -> cl.c_first.(id) <- Some r.body
             | Some b ->
                 if not (String.equal b r.body) then
                   O.fail cl.c_out "%s: answer changed between requests"
                     (Chains.query_text mix.queries.(k)))
         rs;
       if not rs.(window - 1).keep then begin
         Http.close !conn;
         conn := Http.connect sock
       end
     in
     next ()
   with e -> O.fail cl.c_out "client: %s" (Printexc.to_string e));
  cl

(* nproc clients through the gate's blocks until [until]; the clients
   and the run's probes *)
let run_clients cfg mix ~until =
  let gate = Calib.gate () in
  let cls = Array.make cfg.nproc None in
  let n = Array.length mix.raw in
  let ths =
    List.init cfg.nproc (fun j ->
        Thread.create
          (fun () -> cls.(j) <- Some (closed_loop gate mix ~start:(j * n / cfg.nproc)))
          ())
  in
  let probes =
    Fun.protect
      ~finally:(fun () ->
        Calib.set_phase gate (-1);
        List.iter Thread.join ths)
      (fun () -> Calib.drive gate ~block_s:read_block_s ~until)
  in
  (Array.to_list cls |> List.filter_map Fun.id, probes)

(* every recorded sample of [bufs] (time, block) at nominal host speed *)
let normalized probes pairs =
  Array.concat
    (List.map
       (fun (lat, blk) ->
         Array.init (Bstats.Buf.length lat) (fun k ->
             Calib.normalize probes
               ~block:(int_of_float (Bstats.Buf.get blk k))
               (Bstats.Buf.get lat k)))
       pairs)

(* spawn -> ready, and scaled by three probes before the spawn and
   three after ready *)
let start_probed cfg ~program ~state_dir =
  let probes () = List.init 3 (fun _ -> Calib.probe ()) in
  let before = probes () in
  let srv, ready = start cfg ~program ~state_dir in
  (srv, ready, Calib.at_nominal (before @ probes ()) ready)

(* facts matching a query in a database, as sorted answer lines *)
let lookup_lines db q =
  let pred, key = Chains.query_pattern q in
  DB.lookup db pred [ 0 ] [ Value.Int key ]
  |> List.map (fun f -> Chains.line pred (Array.to_list f))
  |> List.sort String.compare

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The serve start-up path in process, layer by layer: parse the
   program and load its @input sources, then chase with provenance on
   (as [kgmodel serve] does). *)
let offline_setup cfg ~program =
  let t0 = now () in
  let prog = V.Parser.parse_program (read_file program) in
  let db = DB.create () in
  ignore (V.Io_sources.load_inputs prog db);
  let t1 = now () in
  let options =
    { V.Engine.default_options with V.Engine.jobs = cfg.nproc; provenance = true }
  in
  let st, stats = Inc.chase ~options ~db prog in
  (st, stats, t1 -. t0, now () -. t1)

(* what the server publishes: a frozen copy with the query patterns'
   indexes prepared *)
let publish_copy db =
  let ep = DB.copy db in
  if DB.is_frozen ep then DB.thaw ep;
  List.iter (fun (p, pos) -> DB.prepare_index ep p pos) Chains.patterns;
  DB.freeze ep;
  ep

let layer_setup o ~parse_s ~chase_s ~ready =
  let ready_s = Bstats.median (Array.to_list ready) in
  O.metric o "setup.parse_s" "s" parse_s;
  O.metric o "setup.chase_s" "s" chase_s;
  O.metric o "setup.ready_s" "s" ready_s;
  O.metric o "setup.unattributed_s" "s" (ready_s -. parse_s -. chase_s)

let layer_engine o (s : V.Engine.stats) =
  let sum f = List.fold_left (fun a r -> a + f r) 0 s.V.Engine.per_rule in
  let probes = sum (fun r -> r.V.Engine.rs_probes)
  and matches = sum (fun r -> r.V.Engine.rs_matches)
  and firings = sum (fun r -> r.V.Engine.rs_firings) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let times = List.map (fun r -> r.V.Engine.rs_time_s) s.per_rule in
  let total = List.fold_left ( +. ) 0. times in
  O.metric o "engine.rounds" "count" (float_of_int s.rounds);
  O.metric o "engine.new_facts" "count" (float_of_int s.new_facts);
  O.metric o "engine.probes" "count" (float_of_int probes);
  O.metric o "engine.matches" "count" (float_of_int matches);
  O.metric o "engine.firings" "count" (float_of_int firings);
  O.metric o "engine.nulls" "count" (float_of_int s.nulls_invented);
  O.metric o "engine.probe_yield" "share" (ratio matches probes);
  O.metric o "engine.firing_yield" "share" (ratio firings matches);
  O.metric o "engine.chase_hit_ratio" "share"
    (ratio s.chase_hits (s.chase_hits + s.chase_misses));
  O.metric o "engine.top_rule_share" "share"
    (if total > 0. then List.fold_left Float.max 0. times /. total else 0.)

let report_server o counts =
  List.iter
    (fun (k, name) ->
      O.metric o ("server." ^ name) "count"
        (float_of_int (Option.value ~default:0 (List.assoc_opt k counts))))
    [ ("requests", "requests"); ("connections", "conns"); ("errors", "errors");
      ("shed", "shed") ]

(* The traced pass makes its calls beside the end-to-end measurement,
   not inside it, so its cost is the wall time it adds to a run: its
   in-process calls as a share of the untraced measurement's span. *)
let trace_overhead o ~traced ~measured =
  O.metric o "trace_overhead_pct" "%" (100. *. traced /. measured)

(* ------------------------------------------------------------------ *)
(* serve-read                                                          *)

let mix_size = 1 lsl 16

(* every first answer must agree across clients and equal [expected] *)
let check_answers o mix cls ~expected =
  Array.iteri
    (fun id q ->
      let bodies =
        List.filter_map (fun c -> c.c_first.(id)) cls
        |> List.sort_uniq String.compare
      in
      match bodies with
      | [] -> ()
      | [ b ] ->
          O.check o
            (Chains.sorted_lines b = expected q)
            "%s: served answer differs from the offline re-chase"
            (Chains.query_text q)
      | _ ->
          O.check o false "%s: clients saw different answers" (Chains.query_text q))
    mix.distinct

let serve_read cfg ~trace o =
  let t = Chains.make ~seed:cfg.seed ~facts:cfg.facts in
  let program = Chains.write_program t ~dir:"." in
  let mix = make_mix ~seed:cfg.seed t mix_size in
  (* traced pass, part 1: start-up layers and offline evaluation on a
     frozen copy of the same materialization *)
  let t_traced = now () in
  let offline =
    if not trace then None
    else begin
      let st, stats, parse_s, chase_s = offline_setup cfg ~program in
      layer_engine o stats;
      let ep = publish_copy (Inc.db st) in
      let cache = DB.cache_create () in
      let buf = Buffer.create 1024 in
      let der = Bstats.Buf.create () and edb = Bstats.Buf.create () in
      let examined = ref 0 and results = ref 0 and bytes = ref 0 in
      Array.iter
        (fun q ->
          let pred, key = Chains.query_pattern q in
          Buffer.clear buf;
          let t0 = now () in
          let ex =
            DB.iter_matches_cached cache ep pred [ 0 ] [ Value.Int key ] (fun _ f ->
                incr results;
                Buffer.add_string buf (Chains.line pred (Array.to_list f));
                Buffer.add_char buf '\n')
          in
          let dt = now () -. t0 in
          examined := !examined + ex;
          bytes := !bytes + Buffer.length buf;
          Bstats.Buf.add (if Chains.is_derived q then der else edb) dt)
        mix.queries;
      let p50 bs = Bstats.median_sorted (Bstats.Buf.sorted_concat bs) in
      O.metric o "query.eval_us.derived" "us" (1e6 *. p50 [ der ]);
      O.metric o "query.eval_us.edb" "us" (1e6 *. p50 [ edb ]);
      O.metric o "query.examined_per_result" "count"
        (float_of_int !examined /. float_of_int (max 1 !results));
      O.metric o "query.answer_bytes" "B"
        (float_of_int !bytes /. float_of_int (Array.length mix.queries));
      Some (ep, parse_s, chase_s, p50 [ der; edb ])
    end
  in
  let t_traced = now () -. t_traced in
  Gc.compact ();
  (* the run's seconds are split over [cfg.setups] fresh servers, as in
     serve-update, each warmed (its index caches) first *)
  let per = cfg.seconds /. float_of_int cfg.setups in
  let t_measured = now () in
  let segs =
    List.init cfg.setups (fun _ ->
        let srv, ready, ready_norm = start_probed cfg ~program ~state_dir:None in
        let until = now () +. per +. (float_of_int warm_blocks *. read_block_s) in
        let cls, probes = run_clients cfg mix ~until in
        List.iter (fun c -> O.absorb o c.c_out) cls;
        let counts = status_counts () in
        let get k = Option.value ~default:(-1) (List.assoc_opt k counts) in
        O.check o (get "errors" = 0 && get "shed" = 0)
          "server reported %d errors, %d shed" (get "errors") (get "shed");
        let rss = vm_hwm_mb (string_of_int srv.pid) in
        O.check o (stop srv) "server did not drain cleanly";
        let norm = normalized probes (List.map (fun c -> (c.c_lat, c.c_blk)) cls) in
        ((ready, ready_norm), (cls, norm, probes), rss, counts))
  in
  let t_measured = now () -. t_measured in
  let ready = Array.of_list (List.map (fun ((d, _), _, _, _) -> d) segs) in
  let ready_norm = Array.of_list (List.map (fun ((_, d), _, _, _) -> d) segs) in
  let cls = List.concat_map (fun (_, (c, _, _), _, _) -> c) segs in
  let lat = Bstats.Buf.sorted_concat (List.map (fun c -> c.c_lat) cls) in
  O.op_latency o ~raw:lat
    ~norm:(Array.concat (List.map (fun (_, (_, n, _), _, _) -> n) segs));
  O.probes o (Array.concat (List.map (fun (_, (_, _, p), _, _) -> p) segs));
  let recorded_s =
    List.fold_left
      (fun a (_, (_, _, p), _, _) ->
        a +. (float_of_int (Array.length p - 1 - warm_blocks) *. read_block_s))
      0. segs
  in
  O.metric o "loadgen.ops_per_s" "1/s"
    (float_of_int (window * Array.length lat) /. recorded_s);
  if trace then begin
    let _, _, _, counts = List.nth segs (List.length segs - 1) in
    report_server o counts
  end;
  O.metric o "setup_s" "s" ~samples:ready_norm (Bstats.median (Array.to_list ready_norm));
  O.metric o "setup.raw_s" "s" (Bstats.median (Array.to_list ready));
  O.metric o "peak_rss_mb" "MB"
    (List.fold_left (fun a (_, _, m, _) -> Float.max a m) 0. segs);
  (* the oracle: an offline chase of the same EDB *)
  match offline with
  | Some (ep, parse_s, chase_s, eval_p50) ->
      check_answers o mix cls ~expected:(lookup_lines ep);
      layer_setup o ~parse_s ~chase_s ~ready;
      (* a query's share of the median window, less its evaluation *)
      O.metric o "query.transport_us" "us"
        (1e6 *. ((Bstats.median_sorted lat /. float_of_int window) -. eval_p50));
      trace_overhead o ~traced:t_traced ~measured:t_measured
  | None ->
      let db = Chains.edb_db t in
      ignore (V.Engine.run (V.Parser.parse_program Chains.rules) db);
      check_answers o mix cls ~expected:(lookup_lines db)

(* ------------------------------------------------------------------ *)
(* serve-update                                                        *)

(* the parts of an /update answer body the checks need *)
let parse_update_answer body =
  let field k =
    List.find_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k'; v ] when k' = k -> Some v
        | _ -> None)
      (String.split_on_char ' ' (String.trim body))
  in
  let int k = Option.bind (field k) int_of_string_opt in
  (int "epoch", int "derived", int "deleted", field "fallback")

(* Load blocks of serve-update (Calib): a second each, so a block holds
   four or five batches; the first is a warm-up whose samples are not
   recorded. *)
let update_block_s = 1.0
let update_warm_blocks = 1

type write_log = {
  w_out : O.t;
  w_lat : Bstats.Buf.t;
  w_blk : Bstats.Buf.t;  (** the block of each *)
  mutable batches : int;
}

(* closed-loop writer: batches back to back on one connection while the
   gate's blocks run *)
let writer cfg gate t ~last_epoch =
  let w =
    { w_out = O.create (); w_lat = Bstats.Buf.create (); w_blk = Bstats.Buf.create ();
      batches = 0 }
  in
  let rng = Random.State.make [| cfg.seed; 0x5eed |] in
  (try
     let conn = ref (Http.connect sock) in
     Fun.protect ~finally:(fun () -> Http.close !conn) @@ fun () ->
     (* one batch; false once a batch failed *)
     let batch b =
       let body = Chains.next_batch rng t ~k:batch_chains in
       let t0 = now () in
       let r = send conn (Http.encode ~meth:"POST" ~path:"/update" body) in
       let dt = now () -. t0 in
       O.attempt w.w_out 1;
       w.batches <- w.batches + 1;
       if b > update_warm_blocks then begin
         Bstats.Buf.add w.w_lat dt;
         Bstats.Buf.add w.w_blk (float_of_int b)
       end;
       match parse_update_answer r.Http.body with
       | Some ep, Some derived, Some deleted, Some fallback when r.status = 200 ->
           Atomic.set last_epoch ep;
           if ep <> t.Chains.epoch || fallback <> "false" || derived = 0 || deleted = 0
           then
             O.fail w.w_out
               "batch %d: epoch=%d fallback=%s derived=%d deleted=%d" t.epoch ep
               fallback derived deleted;
           true
       | _ ->
           O.fail w.w_out "batch %d answered %d: %s" t.epoch r.status
             (String.trim r.body);
           false
     in
     let rec loop () =
       let b = Calib.enter gate in
       if b > 0 && Fun.protect ~finally:(fun () -> Calib.leave gate) (fun () -> batch b)
       then loop ()
     in
     loop ()
   with e -> O.fail w.w_out "writer: %s" (Printexc.to_string e));
  w

type read_log = {
  r_out : O.t;
  r_lat : Bstats.Buf.t;
  r_late : Bstats.Buf.t;
  mutable seen : (int * int * string) list;  (** mix index, epoch, body *)
}

(* open-loop reader: within a block, request j is due at the block's
   start + j / rate; latency runs from the due time, so a stall also
   charges the requests queued behind it *)
let reader gate mix ~last_epoch =
  let rl =
    { r_out = O.create (); r_lat = Bstats.Buf.create ();
      r_late = Bstats.Buf.create (); seen = [] }
  in
  let n = Array.length mix.raw in
  (try
     let conn = ref (Http.connect sock) in
     Fun.protect ~finally:(fun () -> Http.close !conn) @@ fun () ->
     let i = ref 0 and block = ref 0 and start = ref 0. and j = ref 0 in
     let read b =
       if b <> !block then begin
         block := b;
         start := now ();
         j := 0
       end;
       let due = !start +. (float_of_int !j /. read_rate) in
       let k = !i mod n in
       incr i;
       incr j;
       let t = now () in
       if t < due then Unix.sleepf (due -. t);
       let sent = now () in
       let floor = Atomic.get last_epoch in
       let r = send conn mix.raw.(k) in
       let t1 = now () in
       O.attempt rl.r_out 1;
       if b > update_warm_blocks then begin
         Bstats.Buf.add rl.r_lat (t1 -. due);
         Bstats.Buf.add rl.r_late (sent -. due)
       end;
       if r.Http.status <> 200 then
         O.fail rl.r_out "%s answered %d" (Chains.query_text mix.queries.(k)) r.status
       else if r.epoch < floor then
         O.fail rl.r_out "read after update epoch %d answered from epoch %d"
           floor r.epoch
       else rl.seen <- (k, r.epoch, r.body) :: rl.seen
     in
     let rec loop () =
       let b = Calib.enter gate in
       if b > 0 then begin
         Fun.protect ~finally:(fun () -> Calib.leave gate) (fun () -> read b);
         loop ()
       end
     in
     loop ()
   with e -> O.fail rl.r_out "reader: %s" (Printexc.to_string e));
  rl

(* the writer and the reader through the gate's blocks until [until];
   their logs and the run's probes *)
let stream cfg t mix ~until =
  let gate = Calib.gate () in
  let last_epoch = Atomic.make 0 in
  let w = ref None and r = ref None in
  let ths =
    [ Thread.create (fun () -> w := Some (writer cfg gate t ~last_epoch)) ();
      Thread.create (fun () -> r := Some (reader gate mix ~last_epoch)) () ]
  in
  let probes =
    Fun.protect
      ~finally:(fun () ->
        Calib.set_phase gate (-1);
        List.iter Thread.join ths)
      (fun () -> Calib.drive gate ~block_s:update_block_s ~until)
  in
  (Option.get !w, Option.get !r, probes)

(* after the stream: the served answers of every touched chain (and a
   sample of the rest) equal the model and an Incremental.chase of the
   final EDB *)
let final_check o t mix =
  let db =
    let st, _ =
      Inc.chase ~db:(Chains.edb_db t) (V.Parser.parse_program Chains.rules)
    in
    Inc.db st
  in
  let qs =
    List.concat_map
      (fun c ->
        let h = Chains.vertex c 0 in
        Chains.Reach h :: Chains.Controls h
        :: List.init Chains.len (fun i -> Chains.Own (Chains.vertex c i)))
      (Chains.touched t)
    @ Array.to_list (Array.sub mix.distinct 0 (min 256 (Array.length mix.distinct)))
  in
  with_conn (fun c ->
      List.iter
        (fun q ->
          let r = Http.request c ~meth:"POST" ~path:"/query" (Chains.query_text q) in
          let got = Chains.sorted_lines r.Http.body in
          O.check o
            (r.status = 200 && r.epoch = t.Chains.epoch
            && got = lookup_lines db q && got = Chains.expected t t.epoch q)
            "%s at epoch %d: served answer differs from the re-chase of the \
             final EDB"
            (Chains.query_text q) r.epoch)
        qs)

(* batches in the traced replay: a fixed count, so the replay's cost
   tracks the update path's, and enough for stable medians *)
let replay_batches = 24

(* The traced replay of the server's update path: the start of the same
   batch stream through Batch.parse, Incremental.maintain,
   Database.copy, prepare_index, freeze and save_session, each timed. *)
let replay cfg o ~program =
  let st, stats, parse_s, chase_s = offline_setup cfg ~program in
  layer_engine o stats;
  let t = Chains.make ~seed:cfg.seed ~facts:cfg.facts in
  let rng = Random.State.make [| cfg.seed; 0x5eed |] in
  let parts = List.map (fun n -> (n, Bstats.Buf.create ()))
      [ "parse"; "maintain"; "copy"; "index"; "freeze"; "snapshot"; "alloc";
        "remove" ] in
  let add n x = Bstats.Buf.add (List.assoc n parts) x in
  let us = ref [] in
  let scratch = DB.copy (Inc.db st) in
  if DB.is_frozen scratch then DB.thaw scratch;
  let timed n f =
    let t0 = now () in
    let r = f () in
    add n (1e3 *. (now () -. t0));
    r
  in
  rm_rf "replay-state";
  let retracted = ref 0 and removed = ref 0 in
  for _ = 1 to replay_batches do
    let body = Chains.next_batch rng t ~k:batch_chains in
    let batch = timed "parse" (fun () -> Kgm_server.Batch.parse body) in
    let inserts, retracts = Kgm_server.Batch.split batch in
    let u = timed "maintain" (fun () -> Inc.maintain st ~inserts ~retracts) in
    us := u :: !us;
    let a0 = Gc.allocated_bytes () in
    let ep = timed "copy" (fun () -> DB.copy (Inc.db st)) in
    if DB.is_frozen ep then DB.thaw ep;
    timed "index" (fun () ->
        List.iter (fun (p, pos) -> DB.prepare_index ep p pos) Chains.patterns);
    timed "freeze" (fun () -> DB.freeze ep);
    add "alloc" ((Gc.allocated_bytes () -. a0) /. 1048576.);
    ignore
      (timed "snapshot" (fun () ->
           Kgm_server.save_session ~dir:"replay-state" ~keep:3 ~epoch:t.epoch st));
    (* the store's deletion primitive alone, on a scratch copy whose
       extensional facts follow the stream: remove this batch's
       retractions (all present), then add its inserts *)
    retracted := !retracted + List.length retracts;
    removed := !removed + timed "remove" (fun () -> DB.remove_batch scratch retracts);
    List.iter (fun (p, f) -> ignore (DB.add scratch p f)) inserts
  done;
  rm_rf "replay-state";
  let med n = Bstats.median_sorted (Bstats.Buf.sorted_concat [ List.assoc n parts ]) in
  let us = !us in
  let nb = float_of_int (List.length us) in
  let avg f = float_of_int (List.fold_left (fun a u -> a + f u) 0 us) /. nb in
  O.metric o "update.parse_ms" "ms" (med "parse");
  O.metric o "update.maintain_ms" "ms" (med "maintain");
  O.metric o "update.copy_ms" "ms" (med "copy");
  O.metric o "update.index_ms" "ms" (med "index");
  O.metric o "update.freeze_ms" "ms" (med "freeze");
  O.metric o "update.snapshot_ms" "ms" (med "snapshot");
  O.metric o "update.alloc_mb" "MB" (med "alloc");
  O.metric o "db.remove_batch_ms" "ms" (med "remove");
  O.metric o "maintain.cone" "count" (avg (fun u -> u.Inc.u_cone));
  O.metric o "maintain.deleted" "count" (avg (fun u -> u.Inc.u_deleted));
  O.metric o "maintain.rederived" "count" (avg (fun u -> u.Inc.u_rederived));
  O.metric o "maintain.derived" "count" (avg (fun u -> u.Inc.u_derived));
  O.metric o "maintain.agg_groups" "count" (avg (fun u -> u.Inc.u_agg_groups));
  O.metric o "maintain.strata" "count" (avg (fun u -> u.Inc.u_strata));
  let fallback = avg (fun u -> if u.Inc.u_fallback then 1 else 0) in
  O.metric o "maintain.fallback_share" "share" fallback;
  O.check o (fallback = 0.) "maintain fell back to a re-chase on %.0f%% of batches"
    (100. *. fallback);
  O.check o (List.for_all (fun u -> u.Inc.u_cone > 0) us)
    "a batch had an empty DRed cone";
  O.check o (!removed = !retracted) "remove_batch removed %d of %d retractions"
    !removed !retracted;
  ( parse_s, chase_s,
    List.fold_left (fun a n -> a +. med n) 0.
      [ "parse"; "maintain"; "copy"; "index"; "freeze"; "snapshot" ] )

(* One segment per server start: a fresh server (and state directory)
   on the initial EDB, the same seeded stream against it, and its own
   checks. A run pools the segments' samples: update latency has a
   mode per server process (runs on identical input fell near either
   190 or 240 ms for p10), so a run's median spans several. *)
let segment cfg o mix ~program ~seconds =
  let t = Chains.make ~seed:cfg.seed ~facts:cfg.facts in
  rm_rf "state";
  let srv, ready, ready_norm = start_probed cfg ~program ~state_dir:(Some "state") in
  let until = now () +. seconds +. (float_of_int update_warm_blocks *. update_block_s) in
  let w, r, probes = stream cfg t mix ~until in
  O.absorb o w.w_out;
  O.absorb o r.r_out;
  final_check o t mix;
  let counts = status_counts () in
  let get k = Option.value ~default:(-1) (List.assoc_opt k counts) in
  O.check o
    (get "errors" = 0 && get "updates" = w.batches)
    "server reported %d errors, %d updates for %d batches sent" (get "errors")
    (get "updates") w.batches;
  let rss = vm_hwm_mb (string_of_int srv.pid) in
  O.check o (stop srv) "server did not drain cleanly";
  (* mid-stream reads against the model at the epoch that answered *)
  List.iter
    (fun (k, epoch, body) ->
      let q = mix.queries.(k) in
      O.check o
        (Chains.sorted_lines body = Chains.expected t epoch q)
        "%s at epoch %d: wrong answer" (Chains.query_text q) epoch)
    r.seen;
  ((ready, ready_norm), (w, probes), r, rss, counts)

let serve_update cfg ~trace o =
  let t = Chains.make ~seed:cfg.seed ~facts:cfg.facts in
  let program = Chains.write_program t ~dir:"." in
  let mix = make_mix ~seed:cfg.seed t mix_size in
  let t_traced = now () in
  let replayed = if trace then Some (replay cfg o ~program) else None in
  let t_traced = now () -. t_traced in
  Gc.compact ();
  let t_measured = now () in
  let segs =
    List.init cfg.setups (fun _ ->
        segment cfg o mix ~program ~seconds:(cfg.seconds /. float_of_int cfg.setups))
  in
  let t_measured = now () -. t_measured in
  let ready = Array.of_list (List.map (fun ((d, _), _, _, _, _) -> d) segs) in
  let ready_norm = Array.of_list (List.map (fun ((_, d), _, _, _, _) -> d) segs) in
  let ws = List.map (fun (_, (w, _), _, _, _) -> w) segs
  and rs = List.map (fun (_, _, r, _, _) -> r) segs in
  let ulat = Bstats.Buf.sorted_concat (List.map (fun w -> w.w_lat) ws) in
  let up50 = 1e3 *. Bstats.median_sorted ulat in
  O.metric o "setup_s" "s" ~samples:ready_norm (Bstats.median (Array.to_list ready_norm));
  O.metric o "setup.raw_s" "s" (Bstats.median (Array.to_list ready));
  O.op_latency o ~raw:ulat
    ~norm:
      (Array.concat
         (List.map (fun (_, (w, p), _, _, _) -> normalized p [ (w.w_lat, w.w_blk) ]) segs));
  O.probes o (Array.concat (List.map (fun (_, (_, p), _, _, _) -> p) segs));
  (* the writer is a closed loop: its throughput is 1 / mean latency *)
  O.metric o "loadgen.ops_per_s" "1/s"
    (float_of_int (Array.length ulat) /. Array.fold_left ( +. ) 0. ulat);
  O.metric o "peak_rss_mb" "MB"
    (List.fold_left (fun a (_, _, _, m, _) -> Float.max a m) 0. segs);
  let rlat = Bstats.Buf.sorted_concat (List.map (fun r -> r.r_lat) rs) in
  O.metric o "loadgen.read_p50_ms" "ms"
    ~samples:(Array.map (fun s -> 1e3 *. s) rlat)
    (1e3 *. Bstats.median_sorted rlat);
  O.metric o "loadgen.read_p99_ms" "ms" (1e3 *. Bstats.pct rlat 0.99);
  let late = Bstats.Buf.sorted_concat (List.map (fun r -> r.r_late) rs) in
  O.metric o "loadgen.late_ms" "ms"
    (1e3 *. Array.fold_left ( +. ) 0. late /. float_of_int (max 1 (Array.length late)));
  match replayed with
  | None -> ()
  | Some (parse_s, chase_s, parts_ms) ->
      let _, _, _, _, counts = List.nth segs (List.length segs - 1) in
      report_server o counts;
      layer_setup o ~parse_s ~chase_s ~ready;
      trace_overhead o ~traced:t_traced ~measured:t_measured;
      let rest = up50 -. parts_ms in
      O.metric o "update.unattributed_ms" "ms" rest;
      if Float.abs rest > 0.05 *. up50 then
        O.warn o
          "layer sum: update parts %.3f ms vs update p50 %.3f ms (%.1f%% \
           unattributed, bar 5%%)"
          parts_ms up50 (100. *. rest /. up50)
