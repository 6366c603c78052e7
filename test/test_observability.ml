(* Tests for the observability pipeline: the chase flight recorder
   (JSONL journal), the Prometheus text exporter, and fact-level
   explanation over the derivation support — including the load-bearing
   property that explanation output is bit-identical across jobs values,
   planner on/off and checkpoint/resume, and that version-4 snapshots
   carry the support while older versions are cleanly rejected. *)

open Kgm_common
module T = Kgm_telemetry
module J = T.Json
module Journal = T.Journal
module V = Kgm_vadalog

let check = Alcotest.check

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fresh_dir =
  let ctr = ref 0 in
  fun name ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "kgm_obs_%s_%d_%d" name (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".snap" then
          Sys.remove (Filename.concat d f))
      (Sys.readdir d);
    d

(* the paper's company-control example: a controls d only through the
   combined shares of companies it already controls *)
let control_src =
  "company(a). company(b). company(c). company(d). \
   own(a, b, 0.3). own(a, c, 0.6). own(c, b, 0.25). own(b, d, 0.6). \
   own(c, d, 0.1). \
   control(X, X) :- company(X). \
   control(X, Y) :- control(X, Z), own(Z, Y, W), V = sum(W, <Z>), V > 0.5."

let control_program () = V.Parser.parse_program control_src

let run_control ?(jobs = 1) ?(planner = true) ?checkpoint ?resume_from () =
  let options =
    { V.Engine.default_options with
      V.Engine.jobs; planner; provenance = true }
  in
  V.Engine.run_program ~options ?checkpoint ?resume_from (control_program ())

let support_of (s : V.Engine.stats) =
  match s.V.Engine.support with
  | Some sup -> sup
  | None -> Alcotest.fail "expected stats.support under options.provenance"

(* ------------------------------------------------------------------ *)
(* Journal: JSONL round-trip *)

let test_journal_roundtrip () =
  let path = Filename.temp_file "kgm_obs_journal" ".jsonl" in
  let jr = Journal.create ~path () in
  check Alcotest.bool "enabled" true (Journal.enabled jr);
  Journal.emit jr "round.end"
    [ ("round", J.Int 3); ("delta", J.Int 41); ("elapsed_s", J.Float 0.25);
      ("note", J.Str "a \"quoted\" line\nwith a newline") ];
  Journal.emit jr "plan" [ ("reordered", J.Bool true); ("rule", J.Int 0) ];
  Journal.close jr;
  match Journal.read_file path with
  | Error msg -> Alcotest.fail ("read_file: " ^ msg)
  | Ok events ->
      Sys.remove path;
      check Alcotest.int "header + 2 events" 3 (List.length events);
      let header = List.hd events in
      check Alcotest.string "header type" "journal.open" header.Journal.ev_type;
      check (Alcotest.option Alcotest.string) "schema"
        (Some Journal.schema)
        (Journal.str_field header "schema");
      check (Alcotest.option Alcotest.int) "version" (Some Journal.version)
        (Journal.int_field header "version");
      let re = List.nth events 1 in
      check Alcotest.string "type" "round.end" re.Journal.ev_type;
      check (Alcotest.option Alcotest.int) "seq" (Some 1)
        (Some re.Journal.ev_seq);
      check (Alcotest.option Alcotest.int) "delta" (Some 41)
        (Journal.int_field re "delta");
      check (Alcotest.option Alcotest.string) "escaped string survives"
        (Some "a \"quoted\" line\nwith a newline")
        (Journal.str_field re "note");
      (* elapsed_s must come back as a float, not an int *)
      (match Journal.field re "elapsed_s" with
       | Some (J.Float f) -> check (Alcotest.float 0.) "float field" 0.25 f
       | _ -> Alcotest.fail "elapsed_s did not round-trip as Float");
      (* json_of_event is exactly what emit wrote: reprinting and
         reparsing every event is the identity *)
      List.iter
        (fun ev ->
          match Journal.parse_line (J.to_string (Journal.json_of_event ev)) with
          | Error msg -> Alcotest.fail ("parse_line: " ^ msg)
          | Ok ev' ->
              check Alcotest.bool "event reprint round-trip" true (ev = ev'))
        events;
      (* filter: by type and by time window *)
      check Alcotest.int "filter by type" 1
        (List.length (Journal.filter ~ev_type:"plan" events));
      check Alcotest.int "filter until -1 is empty" 0
        (List.length (Journal.filter ~until:(-1.) events))

let test_journal_rejects_garbage () =
  let path = Filename.temp_file "kgm_obs_journal" ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"this\": \"is not a journal header\"}\n";
  close_out oc;
  (match Journal.read_file path with
   | Ok _ -> Alcotest.fail "expected a header error"
   | Error _ -> ());
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Journal: the engine's flight record *)

let test_engine_flight_record () =
  let path = Filename.temp_file "kgm_obs_flight" ".jsonl" in
  let jr = Journal.create ~path () in
  let _db, stats =
    V.Engine.run_program ~journal:jr (control_program ())
  in
  Journal.close jr;
  let events =
    match Journal.read_file path with
    | Ok evs -> evs
    | Error msg -> Alcotest.fail ("read_file: " ^ msg)
  in
  Sys.remove path;
  let of_type t = Journal.filter ~ev_type:t events in
  check Alcotest.int "one run.start" 1 (List.length (of_type "run.start"));
  check Alcotest.int "one run.end" 1 (List.length (of_type "run.end"));
  let starts = of_type "round.start" and ends = of_type "round.end" in
  check Alcotest.bool "has rounds" true (List.length ends > 0);
  check Alcotest.int "round.start/round.end pair up" (List.length starts)
    (List.length ends);
  (* the journalled deltas are the run's delta_sizes, in order *)
  let deltas =
    List.filter_map (fun ev -> Journal.int_field ev "delta") ends
  in
  check (Alcotest.list Alcotest.int) "deltas match stats"
    stats.V.Engine.delta_sizes deltas;
  (* every rule.batch names a rule and a positive fact count *)
  List.iter
    (fun ev ->
      check Alcotest.bool "rule.batch names its rule" true
        (Journal.str_field ev "rule" <> None);
      check Alcotest.bool "rule.batch derived > 0" true
        (match Journal.int_field ev "derived" with
         | Some n -> n > 0
         | None -> false))
    (of_type "rule.batch");
  (* monotone timestamps and sequence numbers *)
  ignore
    (List.fold_left
       (fun (pt, ps) ev ->
         check Alcotest.bool "t monotone" true (ev.Journal.ev_t >= pt);
         check Alcotest.int "seq dense" (ps + 1) ev.Journal.ev_seq;
         (ev.Journal.ev_t, ev.Journal.ev_seq))
       (0., -1) events);
  (* the digest mentions the event types it counted *)
  let digest = Journal.summarize events in
  check Alcotest.bool "summary mentions rounds" true
    (contains ~needle:"round.end" digest)

(* taps see events as they are emitted — the CLI progress line and the
   periodic metrics snapshots hang off this *)
let test_journal_tap () =
  let jr = Journal.create () in
  (* no path: tap-only journal *)
  let seen = ref [] in
  Journal.tap jr (fun ev -> seen := ev.Journal.ev_type :: !seen);
  ignore (V.Engine.run_program ~journal:jr (control_program ()));
  Journal.close jr;
  let seen = List.rev !seen in
  check Alcotest.bool "tap saw run.start" true (List.mem "run.start" seen);
  check Alcotest.bool "tap saw run.end" true (List.mem "run.end" seen);
  check Alcotest.bool "tap saw rounds" true (List.mem "round.end" seen)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition *)

let test_prometheus_export () =
  let tele = T.create () in
  ignore (V.Engine.run_program ~telemetry:tele (control_program ()));
  let text = T.prometheus tele in
  let lines = String.split_on_char '\n' text in
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  check Alcotest.bool "namespaced counter" true (has "kgm_engine_");
  check Alcotest.bool "counter TYPE line" true (has "# TYPE kgm_");
  check Alcotest.bool "histogram +Inf bucket" true
    (List.exists (fun l -> contains ~needle:"_bucket{le=\"+Inf\"}" l) lines);
  check Alcotest.bool "histogram sum/count" true
    (List.exists (fun l -> contains ~needle:"_count " l) lines);
  (* counter samples are integers: one "name value" pair per line *)
  List.iter
    (fun l ->
      if
        contains ~needle:"_total " l
        && (not (contains ~needle:"{" l))
        && String.length l > 0
        && l.[0] <> '#'
      then
        match String.split_on_char ' ' l with
        | [ _; v ] ->
            check Alcotest.bool ("integer sample: " ^ l) true
              (int_of_string_opt v <> None)
        | _ -> Alcotest.fail ("malformed sample line: " ^ l))
    lines;
  (* write_prometheus writes the same exposition atomically *)
  let file = Filename.temp_file "kgm_obs" ".prom" in
  T.write_prometheus file tele;
  let ic = open_in file in
  let n = in_channel_length ic in
  let written = really_input_string ic n in
  close_in ic;
  Sys.remove file;
  check Alcotest.string "file matches exposition" text written

(* ------------------------------------------------------------------ *)
(* Fact-level explanation *)

let str s = Value.String s
let control_fact a b = [| str a; str b |]

let rec find_node p (t : V.Engine.explain_tree) =
  if p t then Some t
  else
    match t.V.Engine.et_node with
    | V.Engine.Derived d ->
        List.fold_left
          (fun acc c -> match acc with Some _ -> acc | None -> find_node p c)
          None d.V.Engine.ed_premises
    | _ -> None

let test_explain_company_control () =
  let program = control_program () in
  let db, stats = run_control () in
  let sup = support_of stats in
  check Alcotest.bool "control(a,d) derived" true
    (V.Database.mem db "control" (control_fact "a" "d"));
  let t = V.Engine.explain_tree sup program "control" (control_fact "a" "d") in
  check Alcotest.int "root depth" 0 t.V.Engine.et_depth;
  (match t.V.Engine.et_node with
   | V.Engine.Derived d ->
       check Alcotest.int "via the aggregate rule" 1 d.V.Engine.ed_rule_id;
       check Alcotest.bool "no nulls invented" true (d.V.Engine.ed_nulls = []);
       (* head substitution, sorted by variable name *)
       check
         (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
         "substitution"
         [ ("X", "\"a\""); ("Y", "\"d\"") ]
         (List.map
            (fun (x, v) -> (x, Value.to_string v))
            d.V.Engine.ed_subst);
       (* canonical premise order: control(a,b) before own(b,d,0.6) —
          a controls d through b's 0.6 share, gained only once a
          controls b *)
       (match d.V.Engine.ed_premises with
        | [ p1; p2 ] ->
            check Alcotest.string "premise 1" "control" p1.V.Engine.et_pred;
            check Alcotest.bool "premise 1 fact" true
              (p1.V.Engine.et_fact = control_fact "a" "b");
            check Alcotest.string "premise 2" "own" p2.V.Engine.et_pred;
            check Alcotest.int "premise depth" 1 p1.V.Engine.et_depth;
            (match p2.V.Engine.et_node with
             | V.Engine.Ground -> ()
             | _ -> Alcotest.fail "own(b,d,0.6) must explain as Ground")
        | ps ->
            Alcotest.failf "expected 2 premises, got %d" (List.length ps))
   | _ -> Alcotest.fail "control(a,d) must explain as Derived");
  (* the chain bottoms out at the reflexive rule over company(a) *)
  (match
     find_node
       (fun n ->
         n.V.Engine.et_pred = "control"
         && n.V.Engine.et_fact = control_fact "a" "a")
       t
   with
   | Some n ->
       (match n.V.Engine.et_node with
        | V.Engine.Derived d ->
            check Alcotest.int "reflexive rule" 0 d.V.Engine.ed_rule_id
        | _ -> Alcotest.fail "control(a,a) must be Derived")
   | None -> Alcotest.fail "tree never reaches control(a,a)");
  (* extensional facts and unknown facts are Ground *)
  let g = V.Engine.explain_tree sup program "company" [| str "a" |] in
  check Alcotest.bool "extensional is Ground" true
    (g.V.Engine.et_node = V.Engine.Ground);
  let u = V.Engine.explain_tree sup program "control" (control_fact "z" "z") in
  check Alcotest.bool "unknown fact is Ground" true
    (u.V.Engine.et_node = V.Engine.Ground);
  (* the rendering is printable and names the firing rule *)
  let rendered = V.Engine.explain_tree_to_string t in
  check Alcotest.bool "render mentions the rule" true
    (contains ~needle:"<- control(X, Y)" rendered);
  check Alcotest.bool "render mentions the ground leaf" true
    (contains ~needle:"(ground)" rendered)

(* bit-identical explanation across jobs x planner x resume: the
   acceptance property of the whole provenance design *)
let test_explain_determinism () =
  let program = control_program () in
  let render stats =
    V.Engine.explain_tree_to_string
      (V.Engine.explain_tree (support_of stats) program "control"
         (control_fact "a" "d"))
  in
  let _, base_stats = run_control ~jobs:1 ~planner:true () in
  let baseline = render base_stats in
  check Alcotest.bool "explanation non-trivial" true
    (String.length baseline > 40);
  List.iter
    (fun (jobs, planner) ->
      let _, stats = run_control ~jobs ~planner () in
      check Alcotest.string
        (Printf.sprintf "jobs=%d planner=%b" jobs planner)
        baseline (render stats))
    [ (1, false); (2, true); (2, false) ];
  (* checkpoint every round, then resume from every snapshot: each
     resumed run must explain identically — the snapshot carries the
     support (v2) and absorb preserves entry order *)
  let dir = fresh_dir "explain_resume" in
  let ck = V.Engine.checkpoint ~every:1 dir in
  let _, ck_stats = run_control ~checkpoint:ck () in
  check Alcotest.string "checkpointing changes nothing" baseline
    (render ck_stats);
  let snaps = Kgm_resilience.Snapshot.list ~dir ~kind:"chase-chase" in
  check Alcotest.bool "snapshots written" true (List.length snaps > 0);
  List.iter
    (fun (seq, path) ->
      List.iter
        (fun jobs ->
          let _, stats = run_control ~jobs ~resume_from:path () in
          check Alcotest.string
            (Printf.sprintf "resume from %d (jobs=%d)" seq jobs)
            baseline (render stats))
        [ 1; 2 ])
    snaps

(* cyclic ownership: the tree is bounded by the cycle guard and by
   max_depth, and never recurses forever *)
let test_explain_cycle_bounded () =
  (* b and c own each other; a's majority stake in b still controls
     both. The support records re-derivations along the b <-> c loop. *)
  let src =
    "company(a). company(b). company(c). \
     own(a, b, 0.8). own(b, c, 0.9). own(c, b, 0.2). \
     control(X, X) :- company(X). \
     control(X, Y) :- control(X, Z), own(Z, Y, W), V = sum(W, <Z>), V > 0.5."
  in
  let program = V.Parser.parse_program src in
  let options =
    { V.Engine.default_options with V.Engine.provenance = true }
  in
  let db, stats = V.Engine.run_program ~options program in
  let sup = support_of stats in
  check Alcotest.bool "a controls c" true
    (V.Database.mem db "control" (control_fact "a" "c"));
  let t = V.Engine.explain_tree sup program "control" (control_fact "a" "c") in
  ignore (V.Engine.explain_tree_to_string t);
  (* a tight depth bound truncates instead of expanding *)
  let shallow =
    V.Engine.explain_tree ~max_depth:1 sup program "control"
      (control_fact "a" "c")
  in
  (match find_node (fun n -> n.V.Engine.et_node = V.Engine.Truncated) shallow with
   | Some n -> check Alcotest.int "truncated at the bound" 1 n.V.Engine.et_depth
   | None -> Alcotest.fail "max_depth:1 must truncate the premises");
  (* a support whose first-recorded derivations loop (as DRed pruning
     can leave behind) hits the Cycle guard, not an infinite loop *)
  let dict = Intern.create () in
  let looped = V.Support.create dict in
  let fact_bc = control_fact "b" "c" and fact_cb = control_fact "c" "b" in
  let ids = Array.map (Intern.intern dict) in
  V.Support.record looped ~rule_id:1 ~parents:[ ("control", ids fact_cb) ]
    ~nulls:[] "control" (ids fact_bc);
  V.Support.record looped ~rule_id:1 ~parents:[ ("control", ids fact_bc) ]
    ~nulls:[] "control" (ids fact_cb);
  let t = V.Engine.explain_tree looped program "control" fact_bc in
  (match find_node (fun n -> n.V.Engine.et_node = V.Engine.Cycle) t with
   | Some n ->
       check Alcotest.bool "cycle below the root" true (n.V.Engine.et_depth > 0)
   | None -> Alcotest.fail "cyclic support must produce a Cycle node")

(* ------------------------------------------------------------------ *)
(* Snapshot version: v6 resumes with support, v1 to v5 are rejected *)

let test_snapshot_v1_rejected () =
  let dir = fresh_dir "v1_reject" in
  let ck = V.Engine.checkpoint ~every:1 dir in
  ignore (run_control ~checkpoint:ck ());
  let path =
    match V.Engine.latest_checkpoint dir with
    | Some p -> p
    | None -> Alcotest.fail "no snapshot written"
  in
  ignore (support_of (snd (run_control ~resume_from:path ())));
  (* rewrite the header's version line (line 3) from 6 to 1, 2, 3, 4 and
     5: the exact files older builds would have produced modulo payload *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  List.iter
    (fun v ->
      let old =
        match String.index_opt content '\n' with
        | None -> Alcotest.fail "malformed snapshot"
        | Some i1 ->
            let i2 = String.index_from content (i1 + 1) '\n' in
            let i3 = String.index_from content (i2 + 1) '\n' in
            String.sub content 0 (i2 + 1) ^ v ^ String.sub content i3 (n - i3)
      in
      let old_path =
        Filename.concat dir (Printf.sprintf "chase-chase-99999%s.snap" v)
      in
      let oc = open_out_bin old_path in
      output_string oc old;
      close_out oc;
      match run_control ~resume_from:old_path () with
      | _ -> Alcotest.failf "v%s snapshot must be rejected" v
      | exception Kgm_error.Error err ->
          check Alcotest.bool
            (Printf.sprintf "v%s: storage-stage error" v)
            true
            (err.Kgm_error.stage = Kgm_error.Storage))
    [ "1"; "2"; "3"; "4"; "5" ]

(* ------------------------------------------------------------------ *)
(* Explanation text, pinned literally: rendering resolves ids to values
   and orders premises by value, whatever order the support keeps them
   in. Null labels are process-global, so they are renamed densely by
   first occurrence before comparing. *)

let rename_nulls text =
  let seen = Hashtbl.create 4 and b = Buffer.create (String.length text) in
  let n = String.length text in
  let rec go i =
    if i >= n then ()
    else if i + 1 < n && text.[i] = '_' && text.[i + 1] = ':' then begin
      Buffer.add_string b "_:";
      let j = if i + 2 < n && text.[i + 2] = 'n' then i + 3 else i + 2 in
      if j > i + 2 then Buffer.add_char b 'n';
      let k = ref j in
      while !k < n && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
      let label = String.sub text j (!k - j) in
      let id =
        match Hashtbl.find_opt seen label with
        | Some id -> id
        | None ->
            let id = Hashtbl.length seen in
            Hashtbl.add seen label id;
            id
      in
      Buffer.add_string b (string_of_int id);
      go !k
    end
    else begin
      Buffer.add_char b text.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let explain_text program pick =
  let options =
    { V.Engine.default_options with V.Engine.provenance = true }
  in
  let db, stats = V.Engine.run_program ~options program in
  let pred, fact = pick db in
  rename_nulls
    (V.Engine.explain_tree_to_string
       (V.Engine.explain_tree (support_of stats) program pred fact))

let test_explain_text_pinned () =
  let company = V.Parser.parse_program Company_control_vada.text in
  check Alcotest.string "control(a, d) on company_control.vada"
    {|control("a", "d")  <- control(X, Y) :- control(X, Z), own(Z, Y, W), V = msum(W, <Z>), (V > 0.5).
  {X = "a", Y = "d"}
  control("a", "b")  <- control(X, Y) :- control(X, Z), own(Z, Y, W), V = msum(W, <Z>), (V > 0.5).
    {X = "a", Y = "b"}
    control("a", "c")  <- control(X, Y) :- control(X, Z), own(Z, Y, W), V = msum(W, <Z>), (V > 0.5).
      {X = "a", Y = "c"}
      control("a", "a")  <- control(X, X) :- company(X).
        {X = "a"}
        company("a")  (ground)
      own("a", "c", 0.6)  (ground)
    own("c", "b", 0.25)  (ground)
  own("b", "d", 0.6)  (ground)
|}
    (explain_text company (fun _ -> ("control", control_fact "a" "d")));
  let nulls =
    V.Parser.parse_program
      "emp(a). emp(b). mgr(X, M) :- emp(X). boss(M) :- mgr(X, M)."
  in
  check Alcotest.string "a fact carrying a labeled null"
    {|boss(_:n0)  <- boss(M) :- mgr(X, M).
  {M = _:n0}
  mgr("a", _:n0)  <- mgr(X, M) :- emp(X).
    {M = _:n0, X = "a"}
    invents _:0
    emp("a")  (ground)
|}
    (explain_text nulls (fun db ->
         ("boss", List.hd (V.Database.facts db "boss"))));
  (* z, y and x are interned in that order, so t(z, y) precedes t(y, x)
     by ids and follows it by values *)
  let chain =
    V.Parser.parse_program "t(z, y). t(y, x). t(X, Z) :- t(X, Y), t(Y, Z)."
  in
  check Alcotest.string "premises of one predicate, in value order"
    {|t("z", "x")  <- t(X, Z) :- t(X, Y), t(Y, Z).
  {X = "z", Z = "x"}
  t("y", "x")  (ground)
  t("z", "y")  (ground)
|}
    (explain_text chain (fun _ -> ("t", control_fact "z" "x")))

let suite =
  [ Alcotest.test_case "journal: JSONL round-trip." `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal: rejects a file without a header." `Quick
      test_journal_rejects_garbage;
    Alcotest.test_case "journal: engine flight record." `Quick
      test_engine_flight_record;
    Alcotest.test_case "journal: taps observe emission." `Quick
      test_journal_tap;
    Alcotest.test_case "prometheus: text exposition shape." `Quick
      test_prometheus_export;
    Alcotest.test_case "explain: company-control derivation tree." `Quick
      test_explain_company_control;
    Alcotest.test_case "explain: identical across jobs, planner, resume."
      `Quick test_explain_determinism;
    Alcotest.test_case "explain: cyclic ownership stays bounded." `Quick
      test_explain_cycle_bounded;
    Alcotest.test_case "snapshot: only v6 resumes."
      `Quick test_snapshot_v1_rejected;
    Alcotest.test_case "explain: text pinned (values, nulls, premise order)."
      `Quick test_explain_text_pinned ]
