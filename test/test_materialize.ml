(* Tests for the instance stack and Algorithm 2: instance loading
   (quasi-inverse round trip), view construction, materialization,
   idempotence, and agreement with native baselines. *)

open Kgm_common
module PG = Kgm_graphdb.Pgraph
module SM = Kgmodel.Supermodel

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let company = Kgm_finance.Company_schema.load

let small_company_data () =
  let d = PG.create () in
  let biz name =
    PG.add_node d ~labels:[ "Business" ]
      ~props:
        [ ("fiscalCode", Value.string name);
          ("businessName", Value.string name);
          ("legalNature", Value.string "spa");
          ("shareholdingCapital", Value.float 100.) ]
  in
  let person name =
    PG.add_node d ~labels:[ "PhysicalPerson" ]
      ~props:
        [ ("fiscalCode", Value.string name);
          ("name", Value.string name);
          ("gender", Value.string "female") ]
  in
  let share id pct owner biz_node =
    let s =
      PG.add_node d ~labels:[ "Share" ]
        ~props:[ ("shareId", Value.string id); ("percentage", Value.float pct) ]
    in
    ignore
      (PG.add_edge d ~label:"HOLDS" ~src:owner ~dst:s
         ~props:[ ("right", Value.string "ownership") ]);
    ignore (PG.add_edge d ~label:"BELONGS_TO" ~src:s ~dst:biz_node ~props:[])
  in
  let a = biz "A" and b = biz "B" and c = biz "C" in
  let p = person "P" and q = person "Q" in
  share "s1" 0.6 a b;
  share "s2" 0.3 a c;
  share "s3" 0.3 b c;
  share "s4" 0.7 p a;
  share "s5" 0.2 q a;
  (d, (a, b, c, p, q))

let setup () =
  let schema = company () in
  let dict = Kgmodel.Dictionary.create () in
  let sid = Kgmodel.Dictionary.store dict schema in
  let inst = Kgmodel.Instances.create dict in
  (schema, dict, sid, inst)

(* ------------------------------------------------------------------ *)
(* Instance stack *)

let test_instance_roundtrip () =
  let schema, _, sid, inst = setup () in
  ignore schema;
  let d, _ = small_company_data () in
  let iid = Kgmodel.Instances.store inst ~schema_oid:sid d in
  let n_nodes, n_edges, n_attrs = Kgmodel.Instances.element_counts inst iid in
  check Alcotest.int "I_SM_Node per data node" (PG.node_count d) n_nodes;
  check Alcotest.int "I_SM_Edge per data edge" (PG.edge_count d) n_edges;
  (* every extensional schema attribute materializes, absent -> null *)
  check Alcotest.bool "attrs cover schema" true (n_attrs > n_nodes);
  let back = Kgmodel.Instances.load inst iid in
  check Alcotest.int "nodes back" (PG.node_count d) (PG.node_count back);
  check Alcotest.int "edges back" (PG.edge_count d) (PG.edge_count back);
  (* same ids, labels and non-null props *)
  List.iter
    (fun id ->
      check Alcotest.bool "node present" true (PG.node_exists back id);
      check
        (Alcotest.list Alcotest.string)
        "labels" (PG.node_labels d id) (PG.node_labels back id);
      List.iter
        (fun (k, v) ->
          check Alcotest.bool ("prop " ^ k) true
            (PG.node_prop back id k = Some v))
        (PG.node_props d id))
    (PG.node_ids d)

let test_instance_conformance_errors () =
  let _, _, sid, inst = setup () in
  let bad = PG.create () in
  ignore (PG.add_node bad ~labels:[ "Alien" ] ~props:[]);
  (match Kgm_error.guard (fun () -> Kgmodel.Instances.store inst ~schema_oid:sid bad) with
   | Error { Kgm_error.stage = Kgm_error.Storage; _ } -> ()
   | _ -> Alcotest.fail "unknown label accepted");
  let bad2 = PG.create () in
  ignore
    (PG.add_node bad2 ~labels:[ "Business" ]
       ~props:[ ("fiscalCode", Value.string "x"); ("ghostProp", Value.int 1) ]);
  match Kgm_error.guard (fun () -> Kgmodel.Instances.store inst ~schema_oid:sid bad2) with
  | Error { Kgm_error.stage = Kgm_error.Storage; _ } -> ()
  | _ -> Alcotest.fail "unknown property accepted"

(* ------------------------------------------------------------------ *)
(* Views *)

let test_view_analysis () =
  let prog = Kgm_metalog.Mparser.parse_program Kgm_finance.Intensional.full in
  let a = Kgmodel.Views.analyze prog in
  check Alcotest.bool "body nodes" true
    (List.mem "Business" a.Kgmodel.Views.body_node_labels
     && List.mem "Person" a.Kgmodel.Views.body_node_labels);
  check Alcotest.bool "body edges" true
    (List.mem "HOLDS" a.Kgmodel.Views.body_edge_labels);
  check Alcotest.bool "head edges" true
    (List.mem "CONTROLS" a.Kgmodel.Views.head_edge_labels
     && List.mem "OWNS" a.Kgmodel.Views.head_edge_labels);
  check Alcotest.bool "head attr numberOfStakeholders" true
    (match List.assoc_opt "Business" a.Kgmodel.Views.head_attrs with
     | Some attrs -> List.mem "numberOfStakeholders" attrs
     | None -> false)

let test_view_sources () =
  let schema = company () in
  let prog = Kgm_metalog.Mparser.parse_program Kgm_finance.Intensional.full in
  let vi = Kgmodel.Views.input_views ~schema ~schema_oid:1 ~instance_oid:2 prog in
  (* Person view must cover descendants: Business instances are Persons *)
  check Alcotest.bool "descendant view rule" true
    (contains vi "name: \"Business\"")
  ;
  check Alcotest.bool "pack present (Ex. 6.2)" true (contains vi "pack(pair(N, V))");
  let vo = Kgmodel.Views.output_views ~schema ~schema_oid:1 ~instance_oid:2 prog in
  check Alcotest.bool "edge output view" true (contains vo "(c: I_SM_Edge");
  check Alcotest.bool "attr output view" true (contains vo "numberOfStakeholders");
  (* generated views parse as MetaLog *)
  let _ = Kgm_metalog.Mparser.parse_program vi in
  let _ = Kgm_metalog.Mparser.parse_program vo in
  ()

(* ------------------------------------------------------------------ *)
(* Algorithm 2 end to end *)

let run_sigma ?(sigma = Kgm_finance.Intensional.full) () =
  let schema, _, sid, inst = setup () in
  let d, ids = small_company_data () in
  let report =
    Kgmodel.Materialize.materialize ~instances:inst ~schema ~schema_oid:sid
      ~data:d ~sigma ()
  in
  (d, ids, report, (schema, sid, inst))

let code d n = Value.to_string (Option.get (PG.node_prop d n "fiscalCode"))

let control_pairs d =
  List.filter_map
    (fun e ->
      let s, t = PG.edge_ends d e in
      if s = t then None else Some (code d s, code d t))
    (PG.edges_with_label d "CONTROLS")
  |> List.sort compare

let test_control_materialization () =
  let d, _, report, _ = run_sigma () in
  check Alcotest.bool "derived edges" true (report.Kgmodel.Materialize.derived_edges > 0);
  (* A owns 60% of B; A+B own 60% of C *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "control pairs"
    [ ("\"A\"", "\"B\""); ("\"A\"", "\"C\"") ]
    (control_pairs d)

let test_owns_and_stakeholders () =
  let d, (a, _, c, p, q), _, _ = run_sigma () in
  let owns_weight src dst =
    List.find_map
      (fun e ->
        let s, t = PG.edge_ends d e in
        if s = src && t = dst then PG.edge_prop d e "percentage" else None)
      (PG.edges_with_label d "OWNS")
  in
  check (Alcotest.option (Alcotest.testable Value.pp Value.equal)) "P owns 70% of A"
    (Some (Value.float 0.7)) (owns_weight p a);
  check (Alcotest.option (Alcotest.testable Value.pp Value.equal)) "Q owns 20% of A"
    (Some (Value.float 0.2)) (owns_weight q a);
  (* regression: two distinct edges with the same value must both keep
     their attribute (A->C and B->C are both 0.3) *)
  let biz name =
    List.find (fun n -> code d n = "\"" ^ name ^ "\"") (PG.nodes_with_label d "Business")
  in
  check (Alcotest.option (Alcotest.testable Value.pp Value.equal)) "A owns 30% of C"
    (Some (Value.float 0.3)) (owns_weight (biz "A") (biz "C"));
  check (Alcotest.option (Alcotest.testable Value.pp Value.equal)) "B owns 30% of C"
    (Some (Value.float 0.3)) (owns_weight (biz "B") (biz "C"));
  (* numberOfStakeholders flushed as a node attribute *)
  check Alcotest.bool "A has 2 stakeholders" true
    (PG.node_prop d a "numberOfStakeholders" = Some (Value.int 2));
  check Alcotest.bool "C has 2 stakeholders" true
    (PG.node_prop d c "numberOfStakeholders" = Some (Value.int 2))

let test_idempotence () =
  (* re-materializing the same Σ on the same data derives nothing new *)
  let d, _, _, (schema, sid, inst) = run_sigma () in
  let before_edges = PG.edge_count d in
  let report2 =
    Kgmodel.Materialize.materialize ~instances:inst ~schema ~schema_oid:sid
      ~data:d ~sigma:Kgm_finance.Intensional.owns ()
  in
  check Alcotest.int "no new OWNS on rerun" 0 report2.Kgmodel.Materialize.derived_edges;
  check Alcotest.int "edge count stable" before_edges (PG.edge_count d)

let test_derived_nodes_families () =
  let schema, _, sid, inst = setup () in
  let d, _ = small_company_data () in
  let sigma =
    Kgm_finance.Intensional.owns ^ "\n" ^ Kgm_finance.Intensional.family
  in
  let report =
    Kgmodel.Materialize.materialize ~instances:inst ~schema ~schema_oid:sid
      ~data:d ~sigma ()
  in
  (* P and Q jointly hold A: related, one family node derived *)
  check Alcotest.bool "family derived" true
    (report.Kgmodel.Materialize.derived_nodes >= 1);
  check Alcotest.bool "family label in data" true
    (PG.nodes_with_label d "Family" <> []);
  check Alcotest.bool "membership edges" true
    (PG.edges_with_label d "BELONGS_TO_FAMILY" <> []);
  check Alcotest.bool "related" true
    (List.length (PG.edges_with_label d "IS_RELATED_TO") = 2);
  check Alcotest.bool "family owns" true
    (PG.edges_with_label d "FAMILY_OWNS" <> [])

let test_close_links_sigma () =
  let schema, _, sid, inst = setup () in
  let d, (a, b, _, p, _) = small_company_data () in
  let sigma =
    Kgm_finance.Intensional.owns ^ "\n" ^ Kgm_finance.Intensional.close_links
  in
  ignore
    (Kgmodel.Materialize.materialize ~instances:inst ~schema ~schema_oid:sid
       ~data:d ~sigma ());
  let links =
    List.map
      (fun e ->
        let s, t = PG.edge_ends d e in
        (code d s, code d t))
      (PG.edges_with_label d "CLOSE_LINK")
  in
  ignore (a, b, p);
  (* P owns 70% of A -> close link; A owns 60% of B -> close link;
     A owns 0.3 + 0.6*0.3 = 0.48 of C -> close link *)
  check Alcotest.bool "P-A" true (List.mem ("\"P\"", "\"A\"") links);
  check Alcotest.bool "A-B" true (List.mem ("\"A\"", "\"B\"") links);
  check Alcotest.bool "A-C indirect" true (List.mem ("\"A\"", "\"C\"") links);
  (* third party: A holds >= 20% of B and C -> B close-linked to C *)
  check Alcotest.bool "third-party B-C" true
    (List.mem ("\"B\"", "\"C\"") links || List.mem ("\"C\"", "\"B\"") links)

let test_timing_report () =
  let _, _, report, _ = run_sigma () in
  check Alcotest.bool "load timed" true (report.Kgmodel.Materialize.load_s >= 0.);
  check Alcotest.bool "reason timed" true (report.Kgmodel.Materialize.reason_s >= 0.);
  check Alcotest.bool "flush timed" true (report.Kgmodel.Materialize.flush_s >= 0.);
  check Alcotest.bool "engine rounds" true
    (report.Kgmodel.Materialize.engine_stats.Kgm_vadalog.Engine.rounds > 0)

let test_agreement_with_native () =
  (* on a generated network, materialized control equals the native and
     the Example 4.2 Vadalog encodings *)
  let o = Kgm_finance.Generator.generate ~n:150 ~seed:5 () in
  let schema, _, sid, inst = setup () in
  let d = Kgm_finance.Generator.to_company_graph o in
  ignore
    (Kgmodel.Materialize.materialize ~instances:inst ~schema ~schema_oid:sid
       ~data:d ~sigma:Kgm_finance.Intensional.full ());
  let materialized = List.length (control_pairs d) in
  let native = List.length (Kgm_finance.Control.all_pairs o) in
  let vadalog = List.length (Kgm_finance.Control.via_vadalog o) in
  check Alcotest.int "native = materialized" native materialized;
  check Alcotest.int "vadalog = materialized" vadalog materialized

(* ------------------------------------------------------------------ *)
(* A cross-version pin of Algorithm 2 on a generated Company KG. The
   engine's fact store is private to [materialize]; what the run leaves
   behind is the data graph D with the flushed edges and attribute
   values, and the dictionary with the derived instance elements written
   back from the V_O facts. Both are read back through the
   PG-to-relational bridge and pinned as canonical facts — per-predicate
   insertion order, labeled nulls renamed by first appearance —
   together with the derived counts and the chase counters that a
   change of evaluation strategy must not move (rounds, delta sizes,
   new facts, nulls, and per rule the firings, nulls and chase misses)
   and the dictionary's per-predicate fact counts. The pin runs three
   times in one process (jobs 1, 2, then 1 again): the V_O rule for
   edge attributes folds a stratified [max] per edge, keyed by labeled
   nulls, so a group order that followed the nulls' hashes would give
   the dictionary's elements other ids on a later call. Re-pin only
   deliberately, with the reason stated. D was re-pinned when
   stratified-aggregate groups began firing in first-seen order: the
   same facts, but the flush gives some CONTROLS and OWNS edges other
   ids. *)

let alg2_pin_facts = "b500c8c405047338aaee60c477286384"
let alg2_pin_dictionary = "d11ca7b2c5c4be00bd6daf2de6b4bd5b"
let alg2_pin_stats = "8e8a3901056d46274dadaa6a86ae4edc"

let alg2_pin_texts jobs =
  let o = Kgm_finance.Generator.generate ~n:120 ~seed:11 () in
  let schema, dict, sid, inst = setup () in
  let d = Kgm_finance.Generator.to_company_graph o in
  let options = { Kgm_vadalog.Engine.default_options with Kgm_vadalog.Engine.jobs } in
  let r =
    Kgmodel.Materialize.materialize ~options ~instances:inst ~schema
      ~schema_oid:sid ~data:d ~sigma:Kgm_finance.Intensional.full ()
  in
  let ls = Kgm_metalog.Label_schema.create () in
  Kgm_metalog.Label_schema.observe_graph ls d;
  Kgmodel.Materialize.label_schema_of_supermodel schema ls;
  let data = Kgm_vadalog.Database.create () in
  Kgm_metalog.Pg_bridge.load ls d data;
  let gd = Kgmodel.Dictionary.graph dict in
  let dls = Kgm_metalog.Label_schema.create () in
  Kgm_metalog.Label_schema.observe_graph dls gd;
  let elements = Kgm_vadalog.Database.create () in
  Kgm_metalog.Pg_bridge.load dls gd elements;
  let st = r.Kgmodel.Materialize.engine_stats in
  let module E = Kgm_vadalog.Engine in
  ( Test_parallel.canon_text data,
    Test_parallel.canon_text elements,
    Printf.sprintf "derived %d %d %d\nrounds %d\ndeltas %s\nnew %d\nnulls %d\nmisses %d\n%s%s"
      r.derived_nodes r.derived_edges r.derived_attrs st.E.rounds
      (String.concat " " (List.map string_of_int st.E.delta_sizes))
      st.E.new_facts st.E.nulls_invented st.E.chase_misses
      (String.concat ""
         (List.map
            (fun (s : E.rule_stats) ->
              Printf.sprintf "%s %d %d %d\n" s.E.rs_label s.E.rs_firings
                s.E.rs_nulls s.E.rs_chase_misses)
            st.E.per_rule))
      (String.concat ""
         (List.map
            (fun p ->
              Printf.sprintf "dictionary %s %d\n" p
                (Kgm_vadalog.Database.count elements p))
            (Kgm_vadalog.Database.predicates elements))) )

let test_alg2_pin () =
  List.iter
    (fun jobs ->
      let facts, dictionary, stats = alg2_pin_texts jobs in
      let pin what want text =
        let got = Digest.to_hex (Digest.string text) in
        if got <> want then begin
          Printf.printf "--- jobs=%d %s: md5 %s, canonical text:\n%s---\n" jobs
            what got text;
          Alcotest.failf "jobs=%d: %s digest %s, pinned %s" jobs what got want
        end
      in
      pin "facts" alg2_pin_facts facts;
      pin "dictionary" alg2_pin_dictionary dictionary;
      pin "stats" alg2_pin_stats stats)
    [ 1; 2; 1 ]

(* ------------------------------------------------------------------ *)
(* Incremental sessions: non-monotone refresh must sweep stale graph
   elements (the flush itself is monotone; before this fix, retracting
   a shareholder left the derived CONTROLS edge in the flushed data
   graph forever). *)

let test_refresh_sweeps_stale_graph () =
  let schema, _, sid, inst = setup () in
  let d, (a, _, _, _, _) = small_company_data () in
  (* the HOLDS edge A -> s1: the 60% share of B that drives control *)
  let holds_ab =
    List.find
      (fun e ->
        let src, dst = PG.edge_ends d e in
        src = a && PG.node_prop d dst "shareId" = Some (Value.string "s1"))
      (PG.edges_with_label d "HOLDS")
  in
  let session, _report =
    Kgmodel.Materialize.materialize_session ~instances:inst ~schema
      ~schema_oid:sid ~data:d ~sigma:Kgm_finance.Intensional.full ()
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "controls before"
    [ ("\"A\"", "\"B\""); ("\"A\"", "\"C\"") ]
    (control_pairs d);
  (* retract every extensional fact of the instance element mirroring
     that HOLDS edge — the shareholder link disappears from the EDB *)
  let gd = Kgmodel.Dictionary.graph (Kgmodel.Instances.dictionary inst) in
  let ielem =
    List.find
      (fun n -> PG.node_prop gd n "dataOID" = Some (Value.Id holds_ab))
      (PG.nodes_with_label gd "I_SM_Edge")
  in
  let st = Kgmodel.Materialize.session_state session in
  let mentions (f : Kgm_vadalog.Database.fact) =
    Array.exists (fun v -> v = Value.Id ielem) f
  in
  let retracts =
    List.filter (fun (_, f) -> mentions f) (Kgm_vadalog.Incremental.edb_facts st)
  in
  check Alcotest.bool "element facts found" true (retracts <> []);
  let r = Kgmodel.Materialize.refresh session ~inserts:[] ~retracts in
  (* the fact database is exact; the graph projection must now be too:
     with A's 60% of B gone, A controls neither B nor C (its remaining
     stake in C is 0.3 directly), so both flushed CONTROLS edges die *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "controls after retraction" [] (control_pairs d);
  check Alcotest.bool "sweep reported" true
    (r.Kgmodel.Materialize.r_swept_elements > 0);
  (* the extensional graph is untouched *)
  check Alcotest.bool "HOLDS edge still in D" true (PG.edge_exists d holds_ab);
  (* and a refresh that re-inserts the facts restores the control edges *)
  let r2 = Kgmodel.Materialize.refresh session ~inserts:retracts ~retracts:[] in
  ignore r2;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "controls restored"
    [ ("\"A\"", "\"B\""); ("\"A\"", "\"C\"") ]
    (control_pairs d)

let suite =
  [ ("instance round-trip (quasi-inverse)", `Quick, test_instance_roundtrip);
    ("instance conformance errors", `Quick, test_instance_conformance_errors);
    ("view static analysis", `Quick, test_view_analysis);
    ("view sources well-formed", `Quick, test_view_sources);
    ("control materialization", `Quick, test_control_materialization);
    ("owns + stakeholders attributes", `Quick, test_owns_and_stakeholders);
    ("idempotent re-materialization", `Quick, test_idempotence);
    ("derived family nodes", `Quick, test_derived_nodes_families);
    ("close links sigma", `Quick, test_close_links_sigma);
    ("timing report populated", `Quick, test_timing_report);
    ("Algorithm 2 pinned across versions", `Quick, test_alg2_pin);
    ("refresh sweeps stale graph elements", `Quick,
     test_refresh_sweeps_stale_graph);
    ("EXP-5 agreement (3 encodings)", `Slow, test_agreement_with_native) ]
