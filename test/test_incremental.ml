(* Tests for the incremental maintenance layer: insert seeding,
   delete-and-rederive retraction, labeled-null death, suppressed-firing
   re-fire, stratum-aware maintenance through negation and stratified
   aggregation, counting maintenance of monotonic aggregates, the
   narrowed fallback gate, one seeded engine pass per phase,
   all-or-nothing batches, the determinism matrix (jobs × planner
   × checkpoint/resume × maintained-vs-rechased), and generated batch
   streams checked against a list model of the EDB. *)

open Kgm_common
module V = Kgm_vadalog
module I = Kgm_vadalog.Incremental

let check = Alcotest.check

(* fact batches are written as Vadalog fact syntax and parsed, so the
   values agree with whatever the parser makes of constants *)
let pfacts src =
  let p = V.Parser.parse_program src in
  List.map (fun (pred, args) -> (pred, Array.of_list args)) p.V.Rule.facts

let opts ?(jobs = 1) ?(planner = true) () =
  { V.Engine.default_options with V.Engine.jobs; planner }

(* an independent from-scratch chase over the state's current EDB *)
let rechased ?checkpoint ?resume_from st program options =
  let db = V.Database.create () in
  if resume_from = None then
    List.iter (fun (p, f) -> ignore (V.Database.add db p f)) (I.edb_facts st);
  ignore
    (V.Engine.run ~options ?checkpoint ?resume_from
       { program with V.Rule.facts = [] }
       db);
  db

let fresh_dir =
  let ctr = ref 0 in
  fun name ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "kgm_incr_%s_%d_%d" name (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".snap" then
          Sys.remove (Filename.concat d f))
      (Sys.readdir d);
    d

let tc_src =
  {| edge(a, b). edge(b, c). edge(c, d).
     reach(X, Y) :- edge(X, Y).
     reach(X, Z) :- reach(X, Y), edge(Y, Z). |}

let test_insert_only () =
  let program = V.Parser.parse_program tc_src in
  let st, _ = I.chase program in
  let u = I.maintain st ~inserts:(pfacts "edge(d, e).") ~retracts:[] in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  check Alcotest.int "one insert" 1 u.I.u_inserted;
  check Alcotest.bool "derived consequences" true (u.I.u_derived >= 4);
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2)

let test_retract_chain () =
  let program = V.Parser.parse_program tc_src in
  let st, _ = I.chase program in
  let before = V.Database.count (I.db st) "reach" in
  check Alcotest.int "closure size" 6 before;
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts "edge(b, c).") in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  check Alcotest.int "one retract" 1 u.I.u_retracted;
  (* cone: edge(b,c) and reach(b,c), reach(a,c), reach(b,d), reach(a,d)
     — all dead; reach(c,d) never enters it (derived from edge(c,d)) *)
  check Alcotest.int "reach after" 2 (V.Database.count (I.db st) "reach");
  check Alcotest.int "cone" 5 u.I.u_cone;
  check Alcotest.int "all deleted" 5 u.I.u_deleted;
  check Alcotest.int "none rederived" 0 u.I.u_rederived;
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2)

let test_alternative_derivation_survives () =
  (* p(x) is derivable from either source; killing one leaves it alive *)
  let src =
    {| s1(x). s2(x).
       p(X) :- s1(X).
       p(X) :- s2(X).
       q(X) :- p(X). |}
  in
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts "s1(x).") in
  check Alcotest.int "p survives" 1 (V.Database.count (I.db st) "p");
  check Alcotest.int "q survives" 1 (V.Database.count (I.db st) "q");
  check Alcotest.bool "cone nonempty" true (u.I.u_cone >= 2);
  check Alcotest.bool "p,q rederived" true (u.I.u_rederived >= 2);
  let u2 = I.maintain st ~inserts:[] ~retracts:(pfacts "s2(x).") in
  check Alcotest.int "p gone" 0 (V.Database.count (I.db st) "p");
  check Alcotest.int "q gone" 0 (V.Database.count (I.db st) "q");
  check Alcotest.bool "deleted now" true (u2.I.u_deleted >= 3)

let test_null_death () =
  (* mgr invents a null manager; retracting the employee kills the null
     and everything carrying it *)
  let src =
    {| emp(a). emp(b).
       mgr(X, M) :- emp(X).
       boss(M) :- mgr(X, M). |}
  in
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  check Alcotest.int "two mgr" 2 (V.Database.count (I.db st) "mgr");
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts "emp(a).") in
  check Alcotest.int "one mgr left" 1 (V.Database.count (I.db st) "mgr");
  check Alcotest.int "one boss left" 1 (V.Database.count (I.db st) "boss");
  check Alcotest.bool "null facts deleted" true (u.I.u_deleted >= 3);
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2)

let test_suppressed_refire () =
  (* the restricted chase suppresses the invention for owner(a, _)
     because owner(a, b) already exists; retracting it must re-fire the
     suppressed derivation, which now invents a null *)
  let src =
    {| person(a). owner(a, b).
       owner(X, Y) :- person(X). |}
  in
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  check Alcotest.int "suppressed, not invented" 2
    (V.Database.total (I.db st));
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts "owner(a, b).") in
  check Alcotest.bool "refired" true (u.I.u_refired >= 1);
  (match V.Engine.query (I.db st) "owner" with
   | [ [| _; Value.Null _ |] ] -> ()
   | _ -> Alcotest.fail "expected owner(a, null)");
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2)

let test_retract_derivable_edb_fact () =
  (* a fact both loaded and derivable: retracting the EDB copy keeps it
     alive through its derivation *)
  let src =
    {| e(a). d(a).
       d(X) :- e(X). |}
  in
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts "d(a).") in
  check Alcotest.int "still derived" 1 (V.Database.count (I.db st) "d");
  check Alcotest.int "nothing deleted" 0 u.I.u_deleted;
  (* now retract its last support *)
  let _ = I.maintain st ~inserts:[] ~retracts:(pfacts "e(a).") in
  check Alcotest.int "gone with support" 0 (V.Database.count (I.db st) "d")

let test_noop_updates () =
  let program = V.Parser.parse_program tc_src in
  let st, _ = I.chase program in
  let total = V.Database.total (I.db st) in
  (* duplicate insert and bogus retracts (unknown / derived facts) *)
  let u =
    I.maintain st
      ~inserts:(pfacts "edge(a, b).")
      ~retracts:(pfacts "edge(z, z). reach(a, c).")
  in
  check Alcotest.int "no insert" 0 u.I.u_inserted;
  check Alcotest.int "no retract" 0 u.I.u_retracted;
  check Alcotest.int "db unchanged" total (V.Database.total (I.db st))

let test_negation_stratum () =
  let src =
    {| node(a). node(b). edge(a, b).
       connected(X) :- edge(X, Y).
       isolated(X) :- node(X), not connected(X). |}
  in
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  check Alcotest.int "b isolated" 1 (V.Database.count (I.db st) "isolated");
  (* retracting edge(a,b) makes a isolated too — non-monotone, but the
     negation only poisons its own stratum: that stratum is re-derived
     wholesale on top of the DRed-maintained lower strata, no full
     re-chase *)
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts "edge(a, b).") in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  check Alcotest.bool "wholesale strata" true (u.I.u_strata >= 1);
  check Alcotest.int "both isolated" 2 (V.Database.count (I.db st) "isolated");
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2)

let test_stratified_agg_stratum () =
  let src =
    {| own(a, b, 0.6). own(a, c, 0.3).
       total(X, S) :- own(X, Y, W), S = sum(W). |}
  in
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  (* [sum(W)] with no contributor key is a Stratified aggregate: its
     stratum is re-derived wholesale rather than falling back *)
  let u = I.maintain st ~inserts:(pfacts "own(a, d, 0.05).") ~retracts:[] in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  check Alcotest.bool "wholesale strata" true (u.I.u_strata >= 1);
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2);
  let u2 = I.maintain st ~inserts:[] ~retracts:(pfacts "own(a, b, 0.6).") in
  check Alcotest.bool "no fallback on retract" false u2.I.u_fallback;
  let db3 = rechased st program (opts ()) in
  check Alcotest.bool "retract equal to re-chase" true
    (I.equal_facts (I.db st) db3)

(* the company-control fixture: a controls b directly (0.6), and c
   through the combined 0.3 + 0.3 held directly and via b *)
let control_src =
  {| company(a). company(b). company(c). company(d).
     own(a, b, 0.6). own(a, c, 0.3). own(b, c, 0.3).
     controls(X, X) :- company(X).
     controls(X, Y) :- controls(X, Z), own(Z, Y, W),
                       V = sum(W, <Z>), V > 0.5. |}

let test_control_loses_control () =
  let program = V.Parser.parse_program control_src in
  let st, _ = I.chase program in
  check Alcotest.int "initial control" 6
    (V.Database.count (I.db st) "controls");
  (* retracting b's stake drops group (a,c) to 0.3: a loses control of c.
     Counting maintenance — no wholesale stratum, no fallback. *)
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts "own(b, c, 0.3).") in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  check Alcotest.int "pure counting (no wholesale)" 0 u.I.u_strata;
  check Alcotest.bool "agg groups touched" true (u.I.u_agg_groups >= 1);
  check Alcotest.int "a loses control of c" 5
    (V.Database.count (I.db st) "controls");
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2);
  (* now empty group (a,b) to zero contributors *)
  let u2 = I.maintain st ~inserts:[] ~retracts:(pfacts "own(a, b, 0.6).") in
  check Alcotest.bool "no fallback (emptied group)" false u2.I.u_fallback;
  check Alcotest.int "only reflexive control left" 4
    (V.Database.count (I.db st) "controls");
  let db3 = rechased st program (opts ()) in
  check Alcotest.bool "emptied equal to re-chase" true
    (I.equal_facts (I.db st) db3)

let test_control_gains_control () =
  let program = V.Parser.parse_program control_src in
  let st, _ = I.chase program in
  (* two sub-threshold stakes that only cross 0.5 together, one held
     through the controlled subsidiary b *)
  let u =
    I.maintain st
      ~inserts:(pfacts "own(a, d, 0.3). own(b, d, 0.3).")
      ~retracts:[]
  in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  check Alcotest.int "a gains control of d" 7
    (V.Database.count (I.db st) "controls");
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2)

let test_control_matrix () =
  (* jobs × planner × maintained-vs-rechased on the control program,
     with a mixed threshold-crossing batch; one leg re-chases through
     checkpoint/resume to pin the invariant across resumed runs *)
  let program = V.Parser.parse_program control_src in
  List.iter
    (fun jobs ->
      List.iter
        (fun planner ->
          let options = opts ~jobs ~planner () in
          let st, _ = I.chase ~options program in
          let u =
            I.maintain st
              ~inserts:(pfacts "own(a, d, 0.55).")
              ~retracts:(pfacts "own(b, c, 0.3).")
          in
          check Alcotest.bool
            (Printf.sprintf "no fallback (jobs=%d planner=%b)" jobs planner)
            false u.I.u_fallback;
          let db2 = rechased st program options in
          check Alcotest.bool
            (Printf.sprintf "maintained = rechased (jobs=%d planner=%b)"
               jobs planner)
            true
            (I.equal_facts (I.db st) db2))
        [ true; false ])
    [ 1; 2 ];
  (* checkpoint/resume leg: re-chase writing a snapshot every round,
     then resume an independent run from the latest snapshot — both
     must equal the maintained database *)
  let st, _ = I.chase program in
  let _ =
    I.maintain st
      ~inserts:(pfacts "own(a, d, 0.55).")
      ~retracts:(pfacts "own(b, c, 0.3).")
  in
  let dir = fresh_dir "control" in
  let ck = V.Engine.checkpoint ~every:1 dir in
  let db_ck = rechased ~checkpoint:ck st program (opts ()) in
  check Alcotest.bool "maintained = checkpointed re-chase" true
    (I.equal_facts (I.db st) db_ck);
  match V.Engine.latest_checkpoint dir with
  | None -> Alcotest.fail "no checkpoint written"
  | Some path ->
      let db_r = rechased ~resume_from:path st program (opts ~jobs:2 ()) in
      check Alcotest.bool "maintained = resumed re-chase" true
        (I.equal_facts (I.db st) db_r)

let test_agg_matches () =
  (* on the control fixture: group (a, c) has one match per contributor,
     through controls(a, a) and controls(a, b) *)
  let program = V.Parser.parse_program control_src in
  let st, _ = I.chase program in
  let db = I.db st in
  let r = V.Engine.agg_rule db (List.nth program.V.Rule.rules 1) in
  let show source =
    List.map
      (fun (m : V.Engine.agg_match) ->
        let str = function Value.String x -> x | v -> Value.to_string v in
        let vs l = String.concat "," (List.map str l) in
        Printf.sprintf "(%s) %s %s <- %s" (vs m.V.Engine.am_group)
          (vs m.V.Engine.am_key)
          (Value.to_string m.V.Engine.am_weight)
          (String.concat " "
             (List.sort compare
                (List.map (fun (p, _) -> p) m.V.Engine.am_parents))))
      (V.Engine.agg_matches db r source)
  in
  let a = Value.String "a" and b = Value.String "b" and c = Value.String "c" in
  let group_ac = [ "(a,c) a 0.3 <- controls own"; "(a,c) b 0.3 <- controls own" ] in
  check Alcotest.(list string) "group (a, c)" group_ac
    (show (`Group [ Some a; Some c ]));
  check Alcotest.(list string) "groups (_, c)"
    [ "(a,c) a 0.3 <- controls own"; "(b,c) b 0.3 <- controls own";
      "(a,c) b 0.3 <- controls own" ]
    (show (`Group [ None; Some c ]));
  check Alcotest.(list (list string)) "the group of head controls(a, c)"
    [ [ "a"; "c" ] ]
    (List.map
       (List.map (function Value.String x -> x | v -> Value.to_string v))
       (V.Engine.agg_head_groups db r ("controls", [| a; c |])));
  check Alcotest.(list string) "through own(b, c, 0.3)"
    [ "(b,c) b 0.3 <- controls own"; "(a,c) b 0.3 <- controls own" ]
    (show (`Fact ("own", [| b; c; Value.Float 0.3 |])));
  check Alcotest.(list string) "an absent fact has no matches" []
    (show (`Fact ("own", [| c; Value.String "zz"; Value.Float 0.3 |])))

let test_integrated_ownership_update () =
  (* integrated-ownership style: holdings unioned from two registries,
     significance decided by a stratified sum over all of them *)
  let src =
    {| own(a, b, 0.15). own(b, c, 0.25). reg(a, b, 0.1).
       hold(X, Y, W) :- own(X, Y, W).
       hold(X, Y, W) :- reg(X, Y, W).
       sig(X, Y) :- hold(X, Y, W), T = sum(W), T >= 0.2. |}
  in
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  check Alcotest.int "two significant links" 2
    (V.Database.count (I.db st) "sig");
  (* retracting the registry stake drops (a,b) to 0.15: sig(a,b) dies *)
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts "reg(a, b, 0.1).") in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  check Alcotest.bool "wholesale strata" true (u.I.u_strata >= 1);
  check Alcotest.int "sig(a,b) gone" 1 (V.Database.count (I.db st) "sig");
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2);
  (* and an insert that pushes it back over the threshold *)
  let u2 = I.maintain st ~inserts:(pfacts "reg(a, b, 0.12).") ~retracts:[] in
  check Alcotest.bool "no fallback on insert" false u2.I.u_fallback;
  check Alcotest.int "sig(a,b) back" 2 (V.Database.count (I.db st) "sig");
  let db3 = rechased st program (opts ()) in
  check Alcotest.bool "insert equal to re-chase" true
    (I.equal_facts (I.db st) db3)

let test_fallback_running_total () =
  (* a monotonic aggregate whose result reaches the head emits running
     totals — order-sensitive, outside counting maintenance, so the
     gate must still route updates through a full re-chase *)
  let src =
    {| own(a, b, 0.3). own(a, c, 0.4).
       t(X, V) :- own(X, Y, W), V = sum(W, <Y>). |}
  in
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  let u = I.maintain st ~inserts:(pfacts "own(a, d, 0.1).") ~retracts:[] in
  check Alcotest.bool "fallback" true u.I.u_fallback;
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2)

let test_fallback_negative_weight () =
  (* a counting-shaped sum that recorded a negative contribution: the
     final-total evidence is unsound (the accumulator is not monotone),
     so the dynamic gate must fall back when the rule is hit *)
  let src =
    {| company(a). company(b).
       own(a, b, 0.9). own(b, b, -0.2).
       controls(X, X) :- company(X).
       controls(X, Y) :- controls(X, Z), own(Z, Y, W),
                         V = sum(W, <Z>), V > 0.5. |}
  in
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts "own(a, b, 0.9).") in
  check Alcotest.bool "fallback" true u.I.u_fallback;
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2);
  (* the re-chase folded the negative weight again: an insert-only
     batch hitting the rule must still fall back *)
  let u2 = I.maintain st ~inserts:(pfacts "own(a, d, 0.6).") ~retracts:[] in
  check Alcotest.bool "fallback on insert" true u2.I.u_fallback;
  let db3 = rechased st program (opts ()) in
  check Alcotest.bool "insert equal to re-chase" true
    (I.equal_facts (I.db st) db3)

(* [sum(w, <z>)] folds the first match per contributor key it meets, so
   a group may hold matches it never folded. When the folded one dies,
   maintenance must read the others from the store, as a re-chase
   would fold them. *)
let test_counting_second_match src ~retract ~expect =
  let program = V.Parser.parse_program src in
  let st, _ = I.chase program in
  let u = I.maintain st ~inserts:[] ~retracts:(pfacts retract) in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  check Alcotest.bool "agg groups touched" true (u.I.u_agg_groups >= 1);
  List.iter
    (fun (p, f) ->
      check Alcotest.bool
        (Printf.sprintf "%s(%s) holds" p
           (String.concat ", " (Array.to_list (Array.map Value.to_string f))))
        true
        (V.Database.mem (I.db st) p f))
    (pfacts expect);
  let db2 = rechased st program (opts ()) in
  check Alcotest.bool "equal to re-chase" true (I.equal_facts (I.db st) db2)

let test_counting_second_match_gains () =
  (* own(a, b, 0.3) was a's folded stake in b; without it the 0.6 one
     counts, and a gains b and, through b, c *)
  test_counting_second_match
    {| company(a). company(b). company(c).
       own(a, b, 0.3). own(a, b, 0.6). own(b, c, 0.6).
       controls(X, X) :- company(X).
       controls(X, Y) :- controls(X, Z), own(Z, Y, W),
                         V = sum(W, <Z>), V > 0.5. |}
    ~retract:"own(a, b, 0.3)." ~expect:"controls(a, b). controls(a, c)."

let test_counting_second_match_keeps () =
  (* edge(a, b, 1.0) was b's folded weight; edge(a, b, 2.0) keeps the
     total of group a over the threshold *)
  test_counting_second_match
    {| edge(a, b, 1.0). edge(a, b, 2.0). edge(a, c, 0.5).
       big(X) :- edge(X, Y, W), V = sum(W, <Y>), V > 1.0. |}
    ~retract:"edge(a, b, 1.0)." ~expect:"big(a)."

let test_two_phase_skip () =
  (* a phase whose body predicates the update cannot reach must not be
     re-entered: only phase 1's delta pass may start an engine run *)
  let p1 = V.Parser.parse_program "e(x). a(X) :- e(X)." in
  let p2 = V.Parser.parse_program "u(y). w(X) :- u(X)." in
  let db = V.Database.create () in
  let st, _ = I.chase_phases ~db [ p1; p2 ] in
  check Alcotest.int "phase-2 derived" 1 (V.Database.count (I.db st) "w");
  let journal = Kgm_telemetry.Journal.create () in
  let runs = ref [] in
  Kgm_telemetry.Journal.tap journal (fun ev ->
      if ev.Kgm_telemetry.Journal.ev_type = "run.start" then
        runs :=
          Option.value ~default:"?"
            (Kgm_telemetry.Journal.str_field ev "mode")
          :: !runs);
  let u = I.maintain ~journal st ~inserts:(pfacts "e(z).") ~retracts:[] in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  check Alcotest.int "a(z) derived" 2 (V.Database.count (I.db st) "a");
  check Alcotest.int "phase 2 untouched" 1 (V.Database.count (I.db st) "w");
  check
    (Alcotest.list Alcotest.string)
    "only phase 1's delta pass ran" [ "delta" ] !runs;
  (* symmetric: a phase-2-only update must skip phase 1 *)
  let runs2 = ref [] in
  let journal2 = Kgm_telemetry.Journal.create () in
  Kgm_telemetry.Journal.tap journal2 (fun ev ->
      if ev.Kgm_telemetry.Journal.ev_type = "run.start" then
        runs2 := "run" :: !runs2);
  let u2 = I.maintain ~journal:journal2 st ~inserts:(pfacts "u(z).") ~retracts:[] in
  check Alcotest.bool "no fallback (phase 2)" false u2.I.u_fallback;
  check Alcotest.int "w(z) derived" 2 (V.Database.count (I.db st) "w");
  check Alcotest.int "one engine run" 1 (List.length !runs2)

let test_start_modes_matrix () =
  (* one phase whose strata run plain (linked) -> stratified negation
     (lonely, re-derived wholesale) -> plain recursive (tour, reading
     the negation's output): the seeded pass starts each stratum in its
     own mode, and the recursive stratum above the wholesale one is
     seeded with what the pass itself derived *)
  let src =
    {| node(a). node(b). node(c). node(d). node(e).
       edge(a, b). edge(b, c).
       next(c, d). next(d, e). next(e, a). next(a, b).
       linked(X) :- edge(X, Y).
       linked(Y) :- edge(X, Y).
       lonely(X) :- node(X), not linked(X).
       tour(X, Y) :- lonely(X), next(X, Y).
       tour(X, Z) :- tour(X, Y), next(Y, Z). |}
  in
  let program = V.Parser.parse_program src in
  List.iter
    (fun jobs ->
      List.iter
        (fun planner ->
          let options = opts ~jobs ~planner () in
          let tag = Printf.sprintf "%s (jobs=%d planner=%b)" in
          let st, _ = I.chase ~options program in
          (* a retraction that makes c lonely, then an insert that
             links d and e *)
          List.iter
            (fun (name, inserts, retracts) ->
              let journal = Kgm_telemetry.Journal.create () in
              let modes = ref [] in
              Kgm_telemetry.Journal.tap journal (fun ev ->
                  if ev.Kgm_telemetry.Journal.ev_type = "run.start" then
                    modes :=
                      Option.value ~default:"?"
                        (Kgm_telemetry.Journal.str_field ev "mode")
                      :: !modes);
              let u = I.maintain ~journal st ~inserts ~retracts in
              check Alcotest.bool (tag (name ^ ": no fallback") jobs planner)
                false u.I.u_fallback;
              check Alcotest.bool (tag (name ^ ": wholesale") jobs planner)
                true (u.I.u_strata >= 1);
              check
                (Alcotest.list Alcotest.string)
                (tag (name ^ ": one seeded pass") jobs planner)
                [ "delta" ] !modes;
              let db2 = rechased st program options in
              check Alcotest.bool
                (tag (name ^ ": maintained = rechased") jobs planner)
                true
                (I.equal_facts (I.db st) db2))
            [ ("retract", [], pfacts "edge(b, c).");
              ("insert", pfacts "edge(d, e).", []) ];
          check Alcotest.int (tag "c alone is lonely: its tour" jobs planner) 4
            (V.Database.count (I.db st) "tour"))
        [ true; false ])
    [ 1; 2 ]

let show_facts facts =
  List.map
    (fun (p, f) ->
      Printf.sprintf "%s(%s)" p
        (String.concat ", " (Array.to_list (Array.map Value.to_string f))))
    facts

let test_failed_batch_is_atomic () =
  (* a batch whose repair cannot finish must leave the EDB as it found
     it, and the next batch must repair the half-maintained store with
     a re-chase. Two ways to fail: an engine pass that raises after DRed
     already deleted (every worker attempt faults, so the retries run
     out), and a round budget under [`Partial], which every other
     engine caller gets back as a normal, partial return *)
  let undone name ~options src ~fail ~next ~after =
    let program = V.Parser.parse_program src in
    let st, stats = I.chase ~options program in
    check Alcotest.bool (name ^ ": the chase completes") true
      (stats.V.Engine.stopped = None);
    let edb_before = show_facts (I.edb_facts st) in
    let raised =
      match fail st with
      | _ -> false
      | exception (Kgm_resilience.Fault _ | Kgm_error.Error _) -> true
    in
    check Alcotest.bool (name ^ ": the batch raised") true raised;
    check
      (Alcotest.list Alcotest.string)
      (name ^ ": EDB as before the batch") edb_before
      (show_facts (I.edb_facts st));
    let u = I.maintain st ~inserts:next ~retracts:[] in
    check Alcotest.bool (name ^ ": next batch re-chases") true u.I.u_fallback;
    check Alcotest.bool (name ^ ": equal to re-chase") true
      (I.equal_facts (I.db st) (rechased st program (opts ())));
    let u2 = I.maintain st ~inserts:[] ~retracts:after in
    check Alcotest.bool (name ^ ": repaired: incremental again") false
      u2.I.u_fallback;
    check Alcotest.bool (name ^ ": still equal to re-chase") true
      (I.equal_facts (I.db st) (rechased st program (opts ())))
  in
  let reach =
    {| reach(X, Y) :- edge(X, Y).
       reach(X, Z) :- reach(X, Y), edge(Y, Z). |}
  in
  undone "worker fault" ~options:(opts ())
    ("edge(a, b). edge(b, c). edge(c, d). edge(d, e). " ^ reach)
    ~fail:(fun st ->
      (* with_spec hands a KGM_FAULTS run of the suite its own
         configuration and draw stream back afterwards *)
      Kgm_resilience.Faults.with_spec "worker:1.0,seed=1" (fun () ->
          ignore
            (I.maintain st ~inserts:(pfacts "edge(e, f).")
               ~retracts:(pfacts "edge(b, c)."))))
    ~next:(pfacts "edge(e, a).")
    ~after:(pfacts "edge(c, d).");
  (* the initial chase and both repairs fit in 3 rounds; propagating
     reach along the inserted chain takes 5 *)
  undone "round budget under Partial"
    ~options:
      { (opts ()) with V.Engine.max_rounds = 3; on_limit = `Partial }
    ("edge(a, b). " ^ reach)
    ~fail:(fun st ->
      ignore
        (I.maintain st
           ~inserts:(pfacts "edge(b, c). edge(c, d). edge(d, e). edge(e, f).")
           ~retracts:[]))
    ~next:(pfacts "edge(x, y).")
    ~after:(pfacts "edge(a, b).")

let test_lib_is_gettimeofday_free () =
  (* satellite guard: maintenance timing (and the rest of lib/) must use
     the monotonic Kgm_telemetry clock, never the wall clock *)
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent
  in
  match find_root (Sys.getcwd ()) with
  | None -> () (* not running from a build tree; nothing to scan *)
  | Some root ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh
          && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      let offenders = ref [] in
      let rec walk dir =
        Array.iter
          (fun entry ->
            let path = Filename.concat dir entry in
            if Sys.is_directory path then walk path
            else if Filename.check_suffix entry ".ml" then begin
              let ic = open_in_bin path in
              let len = in_channel_length ic in
              let body = really_input_string ic len in
              close_in ic;
              if contains body "Unix.gettimeofday" then
                offenders := path :: !offenders
            end)
          (Sys.readdir dir)
      in
      let lib = Filename.concat root "lib" in
      if Sys.file_exists lib then walk lib;
      check
        (Alcotest.list Alcotest.string)
        "lib/ uses the monotonic clock only" [] !offenders

let test_mixed_batch_matrix () =
  (* the determinism matrix: jobs × planner, maintained vs re-chased,
     on a workload with recursion and existential invention *)
  let src =
    {| edge(n0, n1). edge(n1, n2). edge(n2, n3). edge(n3, n4).
       edge(n2, n0).
       reach(X, Y) :- edge(X, Y).
       reach(X, Z) :- reach(X, Y), edge(Y, Z).
       shell(X, C) :- reach(X, n4). |}
  in
  let program = V.Parser.parse_program src in
  List.iter
    (fun jobs ->
      List.iter
        (fun planner ->
          let options = opts ~jobs ~planner () in
          let st, _ = I.chase ~options program in
          let u =
            I.maintain st
              ~inserts:(pfacts "edge(n4, n5). edge(n5, n0).")
              ~retracts:(pfacts "edge(n1, n2).")
          in
          check Alcotest.bool
            (Printf.sprintf "no fallback (jobs=%d planner=%b)" jobs planner)
            false u.I.u_fallback;
          let db2 = rechased st program options in
          check Alcotest.bool
            (Printf.sprintf "maintained = rechased (jobs=%d planner=%b)"
               jobs planner)
            true
            (I.equal_facts (I.db st) db2))
        [ true; false ])
    [ 1; 2 ]

let test_repeated_maintenance () =
  (* many small batches must keep converging to the re-chased truth *)
  let program = V.Parser.parse_program tc_src in
  let st, _ = I.chase program in
  let batches =
    [ (pfacts "edge(d, e).", []);
      ([], pfacts "edge(a, b).");
      (pfacts "edge(e, a). edge(a, b).", pfacts "edge(c, d).");
      ([], pfacts "edge(d, e). edge(e, a).") ]
  in
  List.iter
    (fun (inserts, retracts) ->
      let _ = I.maintain st ~inserts ~retracts in
      let db2 = rechased st program (opts ()) in
      check Alcotest.bool "converged" true (I.equal_facts (I.db st) db2))
    batches

let test_canonical_facts_renames_nulls () =
  (* two chases of the same program burn different global null ids but
     must canonicalize identically *)
  let src = {| emp(a). emp(b). mgr(X, M) :- emp(X). |} in
  let program = V.Parser.parse_program src in
  let db1, _ = V.Engine.run_program program in
  let db2, _ = V.Engine.run_program program in
  check Alcotest.bool "isomorphic" true (I.equal_facts db1 db2);
  let c = I.canonical_facts db1 in
  let mgr = List.assoc "mgr" c in
  let null_ids =
    List.concat_map (fun f -> V.Support.fact_nulls f) mgr
    |> List.sort_uniq Int.compare
  in
  check
    (Alcotest.list Alcotest.int)
    "dense from 0" [ 0; 1 ] null_ids

let test_equal_facts_null_permutation () =
  (* the chain p(n1,n2), p(n2,n3) inserted in opposite orders: the
     within-fact patterns tie, the stable sort keeps insertion order,
     and first-occurrence renaming produces [(0,1);(1,2)] vs
     [(0,1);(2,0)] — distinct canonical forms for isomorphic databases
     (map 1<->11, 2<->12, 3<->13). [equal_facts] must see through the
     permutation with its exact backtracking check. *)
  let db1 = V.Database.create () in
  ignore (V.Database.add db1 "p" [| Value.Null 1; Value.Null 2 |]);
  ignore (V.Database.add db1 "p" [| Value.Null 2; Value.Null 3 |]);
  let db2 = V.Database.create () in
  ignore (V.Database.add db2 "p" [| Value.Null 12; Value.Null 13 |]);
  ignore (V.Database.add db2 "p" [| Value.Null 11; Value.Null 12 |]);
  check Alcotest.bool "canonical forms differ (fast path insufficient)" false
    (I.canonical_facts db1 = I.canonical_facts db2);
  check Alcotest.bool "isomorphic chains" true (I.equal_facts db1 db2);
  (* negative control: a 2-chain is NOT isomorphic to converging edges *)
  let db3 = V.Database.create () in
  ignore (V.Database.add db3 "p" [| Value.Null 21; Value.Null 22 |]);
  ignore (V.Database.add db3 "p" [| Value.Null 23; Value.Null 22 |]);
  check Alcotest.bool "chain <> convergence" false (I.equal_facts db1 db3);
  (* ground facts must still match exactly, not up to renaming *)
  let db4 = V.Database.create () in
  ignore (V.Database.add db4 "p" [| Value.String "a"; Value.Null 1 |]);
  let db5 = V.Database.create () in
  ignore (V.Database.add db5 "p" [| Value.String "b"; Value.Null 1 |]);
  check Alcotest.bool "constants rigid" false (I.equal_facts db4 db5)

(* a fact retracted and re-inserted k times is one EDB fact, at its
   latest insertion: the EDB list grows with the EDB, not with the
   number of updates, and base snapshots and re-chases read it *)
let test_edb_reinsert_once () =
  let st, _ = I.chase (V.Parser.parse_program tc_src) in
  let moved = pfacts "edge(a, b)." in
  for _ = 1 to 5 do
    ignore (I.maintain st ~inserts:[] ~retracts:moved);
    ignore (I.maintain st ~inserts:moved ~retracts:[])
  done;
  let show (p, f) =
    Printf.sprintf "%s(%s)" p
      (String.concat ", " (Array.to_list (Array.map Value.to_string f)))
  in
  check
    Alcotest.(list string)
    "each EDB fact once, re-inserted one last"
    [ {|edge("b", "c")|}; {|edge("c", "d")|}; {|edge("a", "b")|} ]
    (List.map show (I.edb_facts st));
  (* a batch that retracts and re-inserts in one go moves it too *)
  ignore (I.maintain st ~inserts:(pfacts "edge(b, c).") ~retracts:(pfacts "edge(b, c)."));
  check
    Alcotest.(list string)
    "retract + insert in one batch"
    [ {|edge("c", "d")|}; {|edge("a", "b")|}; {|edge("b", "c")|} ]
    (List.map show (I.edb_facts st))

(* a batch naming an EDB fact twice removes it once and says so, as a
   batch inserting one twice adds it once; through a re-chase too *)
let test_duplicate_lines_count_once () =
  let st, _ = I.chase (V.Parser.parse_program tc_src) in
  let journal = Kgm_telemetry.Journal.create () in
  let started = ref [] in
  Kgm_telemetry.Journal.tap journal (fun ev ->
      if ev.Kgm_telemetry.Journal.ev_type = "maintain.start" then
        started := Kgm_telemetry.Journal.int_field ev "retracts" :: !started);
  let twice = pfacts "edge(a, b). edge(a, b)." in
  let u = I.maintain ~journal st ~inserts:[] ~retracts:twice in
  check Alcotest.int "retracted once" 1 u.I.u_retracted;
  check Alcotest.(list (option int)) "maintain.start counts it once" [ Some 1 ]
    !started;
  let u = I.maintain st ~inserts:twice ~retracts:[] in
  check Alcotest.int "inserted once" 1 u.I.u_inserted;
  let st, _ =
    I.chase
      (V.Parser.parse_program
         {| own(a, b, 0.3). own(a, c, 0.4).
            t(X, V) :- own(X, Y, W), V = sum(W, <Y>). |})
  in
  let u =
    I.maintain st ~inserts:[] ~retracts:(pfacts "own(a, b, 0.3). own(a, b, 0.3).")
  in
  check Alcotest.bool "re-chased" true u.I.u_fallback;
  check Alcotest.int "retracted once by the re-chase" 1 u.I.u_retracted

(* Generated batch streams against the list model of the EDB: after
   every batch, whether or not it raised, the EDB is the model's; a
   batch that returned reports the model's counts and leaves the store
   equal to a re-chase of the model, and the batch after one that
   raised re-chases. *)
let prop_stream (prog : Gen_batches.program) steps =
  let module G = Gen_batches in
  let program = V.Parser.parse_program prog.G.src in
  let options = opts () in
  let st, _ = Kgm_resilience.Faults.with_spec "" (fun () -> I.chase ~options program) in
  let model = ref (G.initial_edb program) and torn = ref false in
  let fail = QCheck.Test.fail_reportf in
  List.for_all
    (fun (lines, fault) ->
      let inserts, retracts = Kgm_server.Batch.split lines in
      let text = G.text lines in
      match G.under fault (fun () -> I.maintain st ~inserts ~retracts) with
      | exception (Kgm_resilience.Fault _ | Kgm_error.Error _) ->
          torn := true;
          G.grouped (I.edb_facts st) = G.grouped !model
          || fail "a batch that raised changed the EDB:\n%s" text
      | u ->
          let edb, retracted, inserted = G.apply !model (inserts, retracts) in
          let after_raise = !torn in
          model := edb;
          torn := false;
          (u.I.u_fallback || (not after_raise)
          || fail "the batch after one that raised did not re-chase:\n%s" text)
          && (u.I.u_inserted = inserted
             || fail "inserted=%d, model %d:\n%s" u.I.u_inserted inserted text)
          && (u.I.u_retracted = retracted
             || fail "retracted=%d, model %d:\n%s" u.I.u_retracted retracted text)
          && (G.grouped (I.edb_facts st) = G.grouped edb
             || fail "the EDB differs from the model after:\n%s" text)
          && (I.equal_facts (I.db st) (G.rechase ~options program edb)
             || fail "the store differs from a re-chase of the model after:\n%s"
                  text))
    steps

let stream_tests =
  List.map
    (fun (prog : Gen_batches.program) ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |])
        (QCheck.Test.make
           ~name:(Printf.sprintf "generated batch streams = list model (%s)" prog.Gen_batches.name)
           ~count:60
           (QCheck.make ~print:Gen_batches.show_stream ~shrink:QCheck.Shrink.list
              (Gen_batches.stream prog))
           (prop_stream prog)))
    Gen_batches.programs

(* Cross-version pins of maintenance. For each generated-stream program,
   four streams drawn from the program's own fixed seed run with faults
   off; per batch the text covers every [update_stats] field but the
   elapsed time, the fields of the batch's [dred.cone] record, and the
   canonical store (per-predicate insertion order, nulls renamed by
   first occurrence). None of it depends on [jobs]. A change that moves
   a digest changes what maintenance observably does: re-pin only
   deliberately, with the reason stated. *)
let maintenance_text seed (prog : Gen_batches.program) =
  Kgm_resilience.Faults.with_spec "" @@ fun () ->
  let module J = Kgm_telemetry.Json in
  let program = V.Parser.parse_program prog.Gen_batches.src in
  let rand = Random.State.make [| seed |] in
  let buf = Buffer.create 4096 in
  List.iter
    (fun steps ->
      let journal = Kgm_telemetry.Journal.create () in
      Kgm_telemetry.Journal.tap journal (fun ev ->
          if ev.Kgm_telemetry.Journal.ev_type = "dred.cone" then
            Buffer.add_string buf
              (J.to_string (J.Obj ev.Kgm_telemetry.Journal.ev_fields) ^ "\n"));
      let st, _ = I.chase ~options:(opts ()) program in
      List.iter
        (fun (lines, _fault) ->
          let inserts, retracts = Kgm_server.Batch.split lines in
          let u = I.maintain ~journal st ~inserts ~retracts in
          Buffer.add_string buf
            (Printf.sprintf "+%d -%d cone %d rederived %d deleted %d refired %d \
                             derived %d rounds %d strata %d groups %d fallback %b\n"
               u.I.u_inserted u.I.u_retracted u.I.u_cone u.I.u_rederived
               u.I.u_deleted u.I.u_refired u.I.u_derived u.I.u_rounds
               u.I.u_strata u.I.u_agg_groups u.I.u_fallback);
          Buffer.add_string buf (Test_parallel.canon_text (I.db st)))
        steps)
    (QCheck.Gen.generate ~rand ~n:4 (Gen_batches.stream prog));
  Buffer.contents buf

(* (program, digest), computed before maintenance was split into steps *)
let maintenance_pins =
  [ ("transitive closure", "de8962d0464fa5a126e47c9c282aba58");
    ("company control", "bcd5809bcc159ed93441d6c2b5978a84");
    ("negation stratum", "dc8900b371604b8ca5b9290dd417ac7f");
    ("labeled nulls", "ad93921e76f9e03dd850309567999fd5") ]

let test_maintenance_pins () =
  List.iteri
    (fun i (prog : Gen_batches.program) ->
      check Alcotest.string
        (prog.Gen_batches.name ^ ": maintenance digest")
        (List.assoc prog.Gen_batches.name maintenance_pins)
        (Digest.to_hex (Digest.string (maintenance_text (2201 + i) prog))))
    Gen_batches.programs

(* ------------------------------------------------------------------ *)
(* Delta-first aggregate rounds: a batch seeding [own] collects the
   control rule's prefix matches from the delta, not by scanning every
   [controls] fact, and fires them in the written walk's order. *)

let control_rules =
  {| controls(X, X) :- seed(X).
     controls(X, Y) :- controls(X, Z), own(Z, Y, W), V = sum(W, <Z>), V > 0.5. |}

(* [n] seeded five-vertex chains [c<i>_0 -> ... -> c<i>_4] of weight
   0.6: every chain head controls its chain *)
let control_chains n =
  let b = Buffer.create (n * 128) in
  for i = 0 to n - 1 do
    Printf.bprintf b "seed(c%d_0).\n" i;
    for k = 0 to 3 do
      Printf.bprintf b "own(c%d_%d, c%d_%d, 0.6).\n" i k i (k + 1)
    done
  done;
  Buffer.contents b

let controls_probes (stats : V.Engine.stats) =
  List.fold_left
    (fun acc (r : V.Engine.rule_stats) ->
      if r.V.Engine.rs_label = "controls/2" then acc + r.V.Engine.rs_probes
      else acc)
    0 stats.V.Engine.per_rule

(* One [own] insert extending a chain, as a seeded pass over a store of
   [n] chains: its [controls/2] probes do not depend on [n]. *)
let test_agg_delta_first_probes () =
  let probes n =
    let program = V.Parser.parse_program (control_chains n ^ control_rules) in
    let db = V.Database.create () in
    ignore (V.Engine.run ~options:(opts ()) program db);
    check Alcotest.int "chains controlled" (5 * n)
      (V.Database.count db "controls");
    let f = List.hd (pfacts "own(c0_4, fresh, 0.6).") in
    ignore (V.Database.add db (fst f) (snd f));
    let stats =
      V.Engine.run_delta ~options:(opts ()) program db
        ~seed:[ ("own", [ snd f ]) ]
    in
    check Alcotest.bool "the chain head controls the new vertex" true
      (V.Database.mem db "controls"
         (snd (List.hd (pfacts "controls(c0_0, fresh)."))));
    controls_probes stats
  in
  let small = probes 60 and large = probes 600 in
  check Alcotest.int "controls/2 probes at 10x the store" small large;
  check Alcotest.bool "fewer probes than controls facts" true (small < 5 * 60)

(* [controls(x, z1)] is older than [controls(x, z2)]; the batch seeds
   [own(z2, y, 0.3)] before [own(z1, y, 0.3)]. The written walk meets
   z1's match first, so z2's match crosses the threshold: the support
   entry and the explanation of [controls(x, y)] name it, however the
   delta was collected. *)
let test_agg_delta_first_order () =
  let program =
    V.Parser.parse_program
      ({| seed(x). own(x, z1, 0.6). own(x, z2, 0.6). |}
      ^ control_chains 40 ^ control_rules)
  in
  let options = { (opts ()) with V.Engine.provenance = true } in
  let st, _ = I.chase ~options program in
  let u =
    I.maintain st ~inserts:(pfacts "own(z2, y, 0.3). own(z1, y, 0.3).")
      ~retracts:[]
  in
  check Alcotest.bool "no fallback" false u.I.u_fallback;
  let cxy = snd (List.hd (pfacts "controls(x, y).")) in
  let entries = V.Support.entries (I.support st) "controls" cxy in
  check Alcotest.int "one derivation" 1 (List.length entries);
  let show (p, f) =
    Printf.sprintf "%s(%s)" p
      (String.concat ", " (Array.to_list (Array.map Value.to_string f)))
  in
  check
    Alcotest.(list string)
    "parents: the crossing match of z2"
    [ {|controls("x", "z2")|}; {|own("z2", "y", 0.3)|} ]
    (List.sort compare
       (List.map show (List.hd entries).V.Support.se_parents));
  let text =
    V.Engine.explain_tree_to_string
      (V.Engine.explain_tree (I.support st) program "controls" cxy)
  in
  let has needle = Test_observability.contains ~needle text in
  check Alcotest.bool "explain names own(z2, y, 0.3)" true
    (has {|own("z2", "y", 0.3)|});
  check Alcotest.bool "explain does not name own(z1, y, 0.3)" false
    (has {|own("z1", "y", 0.3)|})

(* Batches that take facts out and put them back, cycle after cycle,
   leave the support's reverse edges as a fresh chase of the same EDB
   records them: every entry [prune] removes leaves its parents'
   children lists, so re-derivations do not pile up there. *)
let check_prune_children name src cycle =
  let program = V.Parser.parse_program src in
  let children st =
    let db = I.db st and sup = I.support st in
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc f -> acc + List.length (V.Support.children sup p f))
          acc (V.Database.facts db p))
      0 (V.Database.predicates db)
  in
  let options = { (opts ()) with V.Engine.provenance = true } in
  let st, _ = I.chase ~options program in
  for _ = 1 to 10 do
    List.iter
      (fun (ins, ret) ->
        let u = I.maintain st ~inserts:(pfacts ins) ~retracts:(pfacts ret) in
        check Alcotest.bool (name ^ ": no fallback") false u.I.u_fallback)
      cycle
  done;
  let db = V.Database.create () in
  List.iter (fun (p, f) -> ignore (V.Database.add db p f)) (I.edb_facts st);
  let fresh, _ = I.chase ~options ~db { program with V.Rule.facts = [] } in
  check Alcotest.bool (name ^ ": same facts") true
    (I.equal_facts (I.db st) (I.db fresh));
  check Alcotest.int
    (name ^ ": children edges as a fresh chase")
    (children fresh) (children st)

let test_prune_children () =
  let edges = "own(c0_1, c0_2, 0.6). own(c3_2, c3_3, 0.6)." in
  (* the deleted facts' own parents *)
  check_prune_children "control chains"
    (control_chains 5 ^ control_rules)
    [ ("", edges); (edges, "") ];
  (* p(x) loses one derivation and survives, then dies through the
     other: the parent of the lost one, a(x, 1), must not keep it *)
  check_prune_children "a survivor's lost derivation"
    {| a(x, 1). a(x, 2). b(1). b(2).
       p(X) :- a(X, Y), b(Y). |}
    [ ("", "b(1)."); ("", "b(2)."); ("b(1). b(2).", "") ];
  (* q(x)'s two derivations share c(x): losing one leaves c(x) listing
     q(x) once, not twice *)
  check_prune_children "a shared parent"
    {| c(x). d(x, 1). d(x, 2).
       q(X) :- c(X), d(X, Y). |}
    [ ("", "d(x, 1)."); ("d(x, 1).", "") ];
  (* r(x) is extensional and derived under negation: its derivation is
     void whenever the stratum re-derives wholesale, and the rerun
     records it again *)
  check_prune_children "a void derivation"
    {| r(x). s(x).
       r(X) :- s(X), not n(X). |}
    [ ("n(x).", ""); ("", "n(x).") ]

let suite =
  [ Alcotest.test_case "insert only ≡ re-chase" `Quick test_insert_only;
    Alcotest.test_case "retract chain (DRed)" `Quick test_retract_chain;
    Alcotest.test_case "alternative derivation survives" `Quick
      test_alternative_derivation_survives;
    Alcotest.test_case "null death cascades" `Quick test_null_death;
    Alcotest.test_case "suppressed firing re-fires" `Quick
      test_suppressed_refire;
    Alcotest.test_case "retract derivable EDB fact" `Quick
      test_retract_derivable_edb_fact;
    Alcotest.test_case "no-op updates" `Quick test_noop_updates;
    Alcotest.test_case "negation: wholesale stratum, no fallback" `Quick
      test_negation_stratum;
    Alcotest.test_case "stratified aggregation: wholesale stratum" `Quick
      test_stratified_agg_stratum;
    Alcotest.test_case "control: who loses control (counting)" `Quick
      test_control_loses_control;
    Alcotest.test_case "control: threshold crossed upward" `Quick
      test_control_gains_control;
    Alcotest.test_case "control: jobs × planner × resume matrix" `Quick
      test_control_matrix;
    Alcotest.test_case "agg_matches: fact and group listings" `Quick
      test_agg_matches;
    Alcotest.test_case "integrated ownership under update" `Quick
      test_integrated_ownership_update;
    Alcotest.test_case "running-total msum still falls back" `Quick
      test_fallback_running_total;
    Alcotest.test_case "negative-weight sum still falls back" `Quick
      test_fallback_negative_weight;
    Alcotest.test_case "second stake counts: a gains b, c"
      `Quick test_counting_second_match_gains;
    Alcotest.test_case "second weight counts: big(a) stays"
      `Quick test_counting_second_match_keeps;
    Alcotest.test_case "irrelevant phase is skipped" `Quick
      test_two_phase_skip;
    Alcotest.test_case "start modes across one pass" `Quick
      test_start_modes_matrix;
    Alcotest.test_case "failed batch is undone" `Quick
      test_failed_batch_is_atomic;
    Alcotest.test_case "re-inserted EDB fact is kept once" `Quick
      test_edb_reinsert_once;
    Alcotest.test_case "lib/ is wall-clock free" `Quick
      test_lib_is_gettimeofday_free;
    Alcotest.test_case "jobs × planner matrix" `Quick test_mixed_batch_matrix;
    Alcotest.test_case "repeated maintenance converges" `Quick
      test_repeated_maintenance;
    Alcotest.test_case "canonical null renaming" `Quick
      test_canonical_facts_renames_nulls;
    Alcotest.test_case "equal_facts: cross-fact null permutation" `Quick
      test_equal_facts_null_permutation;
    Alcotest.test_case "duplicate batch lines count once" `Quick
      test_duplicate_lines_count_once;
    Alcotest.test_case "maintenance pins (generated streams)" `Quick
      test_maintenance_pins;
    Alcotest.test_case "delta-first aggregate round: probes O(batch)" `Quick
      test_agg_delta_first_probes;
    Alcotest.test_case "delta-first aggregate round: written order" `Quick
      test_agg_delta_first_order;
    Alcotest.test_case "pruned facts leave their parents' children" `Quick
      test_prune_children ]
  @ stream_tests
