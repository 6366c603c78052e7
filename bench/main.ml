(* The benchmark harness: regenerates every quantitative artifact of the
   paper (see DESIGN.md, per-experiment index) and runs Bechamel
   micro-benchmarks.

   Usage:
     dune exec bench/main.exe               -- all experiment reports + bechamel
     dune exec bench/main.exe exp1 ... abl4 -- selected experiments
     dune exec bench/main.exe bechamel      -- only the micro-benchmark table

   EXP-1  Sec. 2.1 graph-statistics table
   EXP-2  Sec. 6 materialization timing split (load | reason | flush)
   EXP-3  Fig. 4 -> Fig. 6 PG-model translation
   EXP-4  Fig. 4 -> Fig. 8 relational translation + DDL
   EXP-5  Ex. 4.1/4.2 company control, three encodings
   EXP-6  Ex. 4.3/4.4 DESCFROM path pattern vs native closure
   EXP-7  Ex. 5.1/5.2 generalization elimination vs analytic counts
   EXP-8  Ex. 6.1/6.2 instance loading and views
   EXP-9  close links / integrated ownership / company groups
   ABL-1  restricted+isomorphic chase vs oblivious chase
   ABL-2  semi-naive vs naive evaluation
   ABL-3  monotonic (streaming) vs distinct-at-fixpoint aggregation
   ABL-4  greedy join ordering vs written body order
   PAR    parallel semi-naive rounds, jobs=1 vs jobs=ncores
          (writes BENCH_parallel.json; run as "parallel")
   RES    checkpoint overhead on the EXP-2 workload + crash-then-resume
          equivalence (writes BENCH_resilience.json; run as
          "resilience")
   INC    incremental maintenance (DRed) vs full re-chase, single
          retraction + 1% insert batch, jobs x planner matrix (writes
          BENCH_incremental.json; run as "incremental")
   OBS    flight-recorder journal + provenance retention overhead vs
          the plain chase on the PLAN (a) workload (writes
          BENCH_observability.json; run as "observability") *)

open Kgm_common
module G = Kgm_finance.Generator
module DG = Kgm_algo.Digraph
module PG = Kgm_graphdb.Pgraph

let say fmt = Format.printf fmt

let header title =
  say "@.============================================================@.";
  say "%s@." title;
  say "============================================================@."

(* Every run feeds one collector; the harness dumps it as
   BENCH_telemetry.json (Chrome trace-event format) so experiment
   reports are machine-readable as well as printed. *)
let tele = Kgm_telemetry.create ()

let time f =
  let t0 = Kgm_telemetry.Clock.now () in
  let r = f () in
  (r, Kgm_telemetry.Clock.now () -. t0)

(* a positive override from the environment: KGM_BENCH_N (instance
   size), _REQS, _CLIENTS, _WORKERS *)
let bench_env name =
  match Option.bind (Sys.getenv_opt ("KGM_BENCH_" ^ name)) int_of_string_opt with
  | Some n when n > 0 -> Some n
  | _ -> None

module J = Kgm_telemetry.Json

(* write an experiment's results as the JSON object [fields] *)
let write_bench file fields =
  let oc = open_out file in
  output_string oc (J.to_string (J.Obj fields) ^ "\n");
  close_out oc;
  say "@.results written to %s@." file

(* ------------------------------------------------------------------ *)

let exp1 () =
  header "EXP-1 | Sec. 2.1: topology of the shareholding graph";
  say
    "Paper column: the production register (11.97M nodes). Measured: the@.\
     synthetic generator at three scales (seed 42). The shape to check:@.\
     ~1.2 edges/node, power law with hubs, near-trivial SCCs, one giant@.\
     WCC among many small ones, in-degree > out-degree, low clustering.@.";
  List.iter
    (fun n ->
      let o = G.generate ~n () in
      let s, dt = time (fun () -> Kgm_finance.Fin_stats.compute o.G.graph) in
      say "@.--- N = %d (computed in %.2fs) ---@." n dt;
      Format.printf "%a" Kgm_finance.Fin_stats.pp s)
    [ 10_000; 50_000; 120_000 ]

(* ------------------------------------------------------------------ *)

let materialization_run ?options ?(telemetry = Kgm_telemetry.null)
    ?checkpoint_dir ?checkpoint_every ?resume n =
  let schema = Kgm_finance.Company_schema.load () in
  let dict = Kgmodel.Dictionary.create () in
  let sid = Kgmodel.Dictionary.store dict schema in
  let inst = Kgmodel.Instances.create dict in
  let o = G.generate ~n () in
  let data = G.to_company_graph o in
  let report =
    Kgmodel.Materialize.materialize ?options ~telemetry ?checkpoint_dir
      ?checkpoint_every ?resume ~instances:inst ~schema ~schema_oid:sid ~data
      ~sigma:Kgm_finance.Intensional.full ()
  in
  (o, data, report)

let exp2 () =
  header "EXP-2 | Sec. 6: materialization timing split";
  say
    "Paper: on the production KG (16 cores, 128 GB), reasoning the control@.\
     component takes ~160 min while loading + flushing take ~15 min —@.\
     a reasoning:(load+flush) ratio of ~10.7. Measured: Algorithm 2 on@.\
     synthetic Company KGs (full Σ: OWNS + CONTROLS + stakeholders).@.@.";
  say "%8s | %9s | %9s | %9s | %9s | %6s@." "N" "load s" "reason s" "flush s"
    "derived" "ratio";
  say "%s@." (String.make 70 '-');
  List.iter
    (fun n ->
      let _, _, r =
        Kgm_telemetry.with_span tele ~cat:"bench"
          ~args:[ ("n", string_of_int n) ]
          "exp2.materialize"
          (fun () -> materialization_run ~telemetry:tele n)
      in
      let ratio =
        r.Kgmodel.Materialize.reason_s
        /. max 1e-9 (r.Kgmodel.Materialize.load_s +. r.Kgmodel.Materialize.flush_s)
      in
      say "%8d | %9.3f | %9.3f | %9.3f | %9d | %6.2f@." n
        r.Kgmodel.Materialize.load_s r.Kgmodel.Materialize.reason_s
        r.Kgmodel.Materialize.flush_s
        (r.Kgmodel.Materialize.derived_edges + r.Kgmodel.Materialize.derived_attrs)
        ratio)
    [ 200; 400; 800; 1600 ];
  say
    "@.Ratio = reasoning / (loading + flushing); the paper's is ~10.7 on@.\
     its production KG and engine (see EXPERIMENTS.md, EXP-2).@."

(* ------------------------------------------------------------------ *)

let exp3 () =
  header "EXP-3 | Fig. 4 -> Fig. 6: SSST translation to the PG model";
  let schema = Kgm_finance.Company_schema.load () in
  let dict = Kgmodel.Dictionary.create () in
  let sid = Kgmodel.Dictionary.store dict schema in
  let outcome, dt =
    time (fun () ->
        Kgmodel.Ssst.translate ~telemetry:tele dict
          (Kgm_targets.Pg_model.mapping ()) sid)
  in
  let derived = Kgm_targets.Pg_model.decode dict outcome.Kgmodel.Ssst.target_oid in
  let native = Kgm_targets.Pg_model.translate_native schema in
  say "translation time (two MetaLog reasoning passes): %.3fs@." dt;
  say "Eliminate: %d facts / %d rounds; Copy: %d facts / %d rounds@."
    outcome.Kgmodel.Ssst.eliminate_stats.Kgm_vadalog.Engine.new_facts
    outcome.Kgmodel.Ssst.eliminate_stats.Kgm_vadalog.Engine.rounds
    outcome.Kgmodel.Ssst.copy_stats.Kgm_vadalog.Engine.new_facts
    outcome.Kgmodel.Ssst.copy_stats.Kgm_vadalog.Engine.rounds;
  let nkinds = List.length derived.Kgm_targets.Pg_model.node_kinds in
  let rkinds = List.length derived.Kgm_targets.Pg_model.rel_kinds in
  say "@.%12s | %6s | %8s@." "construct" "paper" "measured";
  say "%s@." (String.make 34 '-');
  say "%12s | %6s | %8d@." "node kinds" "11" nkinds;
  say "%12s | %6s | %8d@." "rel kinds" "n/a*" rkinds;
  say "  (*) Fig. 6 draws one arrow per schema edge; the mapping's@.";
  say "      edge-inheritance rules (Ex. 5.2) expand them to %d pairs.@." rkinds;
  let plc =
    List.find
      (fun nk -> List.hd nk.Kgm_targets.Pg_model.nk_labels = "PublicListedCompany")
      derived.Kgm_targets.Pg_model.node_kinds
  in
  say "PublicListedCompany labels (Ex. 5.1 accumulation): %s@."
    (String.concat ":" plc.Kgm_targets.Pg_model.nk_labels);
  say "differential vs native baseline: %s@."
    (if Kgm_targets.Pg_model.equal_schema derived native then "EQUAL" else "DIFFERS");
  say "@.enforcement script (first lines):@.";
  let script = Kgm_targets.Pg_model.enforcement_script derived in
  List.iteri
    (fun i l -> if i < 5 then say "  %s@." l)
    (String.split_on_char '\n' script)

let exp4 () =
  header "EXP-4 | Fig. 4 -> Fig. 8: SSST translation to the relational model";
  let schema = Kgm_finance.Company_schema.load () in
  let dict = Kgmodel.Dictionary.create () in
  let sid = Kgmodel.Dictionary.store dict schema in
  let outcome, dt =
    time (fun () ->
        Kgmodel.Ssst.translate ~telemetry:tele dict
          (Kgm_targets.Relational_model.mapping ()) sid)
  in
  let derived =
    Kgm_targets.Relational_model.decode dict outcome.Kgmodel.Ssst.target_oid
  in
  let native = Kgm_targets.Relational_model.translate_native schema in
  say "translation time: %.3fs@." dt;
  say "relations: %d, foreign keys: %d (Fig. 8 shows one box per relation)@."
    (List.length derived.Kgm_relational.Rschema.relations)
    (List.length derived.Kgm_relational.Rschema.foreign_keys);
  say "bridge relations (many-to-many eliminated): %s@."
    (String.concat ", "
       (List.filter_map
          (fun (r : Kgm_relational.Rschema.relation) ->
            if Names.is_upper_case r.Kgm_relational.Rschema.r_name then
              Some r.Kgm_relational.Rschema.r_name
            else None)
          derived.Kgm_relational.Rschema.relations));
  say "differential vs native baseline: %s@."
    (if Kgm_targets.Relational_model.equal_schema derived native then "EQUAL"
     else "DIFFERS");
  (match Kgm_relational.Rschema.validate derived with
   | Ok () -> say "schema validates (keys, FK arities, identifiers)@."
   | Error es -> say "INVALID: %s@." (String.concat "; " es));
  let ddl = Kgm_targets.Relational_model.ddl derived in
  say "DDL: %d statements, %d bytes@."
    (List.length (String.split_on_char ';' ddl) - 1)
    (String.length ddl)

(* ------------------------------------------------------------------ *)

let exp5 () =
  header "EXP-5 | Ex. 4.1/4.2: company control, three encodings";
  say
    "The same control definition computed by (a) the native fixpoint,@.\
     (b) the Vadalog program of Example 4.2, (c) full Algorithm-2@.\
     materialization of the MetaLog Σ of Example 4.1.@.@.";
  say "%8s | %7s | %10s | %10s | %10s | %5s@." "N" "pairs" "native s"
    "vadalog s" "metalog s" "agree";
  say "%s@." (String.make 66 '-');
  List.iter
    (fun n ->
      let o = G.generate ~n () in
      let native, t_nat =
        time (fun () -> List.sort compare (Kgm_finance.Control.all_pairs o))
      in
      let vada, t_vad = time (fun () -> Kgm_finance.Control.via_vadalog o) in
      let (_, data, _), t_mat = time (fun () -> materialization_run n) in
      let mat_pairs =
        List.length (PG.edges_with_label data "CONTROLS")
        - List.length (PG.nodes_with_label data "Business")
      in
      let agree = native = vada && List.length native = mat_pairs in
      say "%8d | %7d | %10.3f | %10.3f | %10.3f | %5b@." n (List.length native)
        t_nat t_vad t_mat agree)
    [ 100; 200; 400; 800 ];
  say
    "@.Shape check: all encodings agree exactly; the native baseline is@.\
     fastest, the declarative encodings pay the generality of the chase@.\
     (the paper's motivation for running Vadalog on a 16-core server).@."

(* ------------------------------------------------------------------ *)

let chain_schema depth =
  let schema = ref (Kgmodel.Supermodel.empty "chain") in
  for i = 0 to depth do
    let attrs =
      if i = 0 then [ Kgmodel.Supermodel.attribute ~id:true "oid" Value.TString ]
      else []
    in
    schema :=
      Kgmodel.Supermodel.add_node !schema
        (Kgmodel.Supermodel.node (Printf.sprintf "Level%d" i) attrs)
  done;
  for i = 0 to depth - 1 do
    schema :=
      Kgmodel.Supermodel.add_generalization !schema
        (Kgmodel.Supermodel.generalization
           (Printf.sprintf "Gen%d" i)
           ~parent:(Printf.sprintf "Level%d" i)
           ~children:[ Printf.sprintf "Level%d" (i + 1) ])
  done;
  !schema

let descfrom_program sid =
  Kgm_metalog.Mparser.parse_program
    (Printf.sprintf
       {|(x: SM_Node; schemaOID: %d)-/ ([:SM_CHILD; schemaOID: %d]~ [:SM_PARENT; schemaOID: %d])* /->(y: SM_Node; schemaOID: %d)
         => (x)-[w: DESCFROM]->(y).|}
       sid sid sid sid)

let exp6 () =
  header "EXP-6 | Ex. 4.3/4.4: DESCFROM path patterns over the dictionary";
  say
    "A generalization chain of depth d stored in the dictionary; the@.\
     MetaLog rule of Example 4.3 (inverse, concatenation, Kleene star)@.\
     is compiled by MTV into the β-rules of Example 4.4 and chased.@.@.";
  say "%6s | %10s | %12s | %12s | %5s@." "depth" "DESCFROM" "metalog s"
    "native s" "agree";
  say "%s@." (String.make 58 '-');
  List.iter
    (fun depth ->
      let schema = chain_schema depth in
      let dict = Kgmodel.Dictionary.create () in
      let sid = Kgmodel.Dictionary.store dict schema in
      let (_, ne, _), t_ml =
        time (fun () ->
            Kgm_metalog.Pg_bridge.reason_on_graph (descfrom_program sid)
              (Kgmodel.Dictionary.graph dict))
      in
      let native, t_nat =
        time (fun () ->
            List.fold_left
              (fun acc (n : Kgmodel.Supermodel.node) ->
                acc
                + List.length
                    (Kgmodel.Supermodel.ancestors schema n.Kgmodel.Supermodel.n_name))
              0 schema.Kgmodel.Supermodel.nodes)
      in
      say "%6d | %10d | %12.4f | %12.6f | %5b@." depth ne t_ml t_nat
        (ne = native))
    [ 2; 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)

let exp7 () =
  header "EXP-7 | Ex. 5.1/5.2: generalization elimination, analytic check";
  say
    "A synthetic two-level generalization forest (r roots x c children x c@.\
     grandchildren, one self-edge per root). The DeleteGeneralizations@.\
     rules must produce the analytically expected label and edge counts.@.@.";
  say "%8s | %13s | %15s | %8s@." "nodes" "labels" "rel kinds" "time s";
  say "%s@." (String.make 54 '-');
  List.iter
    (fun (r, c) ->
      let schema = ref (Kgmodel.Supermodel.empty "forest") in
      let node name attrs =
        schema :=
          Kgmodel.Supermodel.add_node !schema (Kgmodel.Supermodel.node name attrs)
      in
      let gen_ctr = ref 0 in
      for i = 0 to r - 1 do
        let root = Printf.sprintf "Root%d" i in
        node root [ Kgmodel.Supermodel.attribute ~id:true "oid" Value.TString ];
        let children =
          List.init c (fun j ->
              let child = Printf.sprintf "Mid%dx%d" i j in
              node child [];
              let grandchildren =
                List.init c (fun k ->
                    let g = Printf.sprintf "Leaf%dx%dx%d" i j k in
                    node g [];
                    g)
              in
              incr gen_ctr;
              schema :=
                Kgmodel.Supermodel.add_generalization !schema
                  (Kgmodel.Supermodel.generalization
                     (Printf.sprintf "G%d" !gen_ctr)
                     ~parent:child ~children:grandchildren);
              child)
        in
        incr gen_ctr;
        schema :=
          Kgmodel.Supermodel.add_generalization !schema
            (Kgmodel.Supermodel.generalization
               (Printf.sprintf "G%d" !gen_ctr)
               ~parent:root ~children);
        schema :=
          Kgmodel.Supermodel.add_edge !schema
            (Kgmodel.Supermodel.edge (Printf.sprintf "E_%d" i) ~from:root ~to_:root)
      done;
      (match Kgmodel.Supermodel.validate !schema with
       | Ok () -> ()
       | Error es -> failwith (String.concat ";" es));
      let dict = Kgmodel.Dictionary.create () in
      let sid = Kgmodel.Dictionary.store dict !schema in
      let outcome, dt =
        time (fun () ->
            Kgmodel.Ssst.translate dict (Kgm_targets.Pg_model.mapping ()) sid)
      in
      let derived = Kgm_targets.Pg_model.decode dict outcome.Kgmodel.Ssst.target_oid in
      let n_nodes = r * (1 + c + (c * c)) in
      let expected_labels = r * (1 + (c * 2) + (c * c * 3)) in
      let measured_labels =
        List.fold_left
          (fun acc nk -> acc + List.length nk.Kgm_targets.Pg_model.nk_labels)
          0 derived.Kgm_targets.Pg_model.node_kinds
      in
      let expected_rel_kinds = r * (1 + (2 * (c + (c * c)))) in
      let measured_rel_kinds = List.length derived.Kgm_targets.Pg_model.rel_kinds in
      say "%8d | %6d %s %4d | %7d %s %4d | %8.3f@." n_nodes measured_labels
        (if measured_labels = expected_labels then "=" else "<>")
        expected_labels measured_rel_kinds
        (if measured_rel_kinds = expected_rel_kinds then "=" else "<>")
        expected_rel_kinds dt)
    [ (1, 2); (2, 3); (4, 4) ]

(* ------------------------------------------------------------------ *)

let exp8 () =
  header "EXP-8 | Ex. 6.1/6.2: instance loading and the view stack";
  say "%8s | %9s | %9s | %9s | %15s@." "N" "I_nodes" "I_edges" "I_attrs"
    "roundtrip";
  say "%s@." (String.make 62 '-');
  List.iter
    (fun n ->
      let schema = Kgm_finance.Company_schema.load () in
      let dict = Kgmodel.Dictionary.create () in
      let sid = Kgmodel.Dictionary.store dict schema in
      let inst = Kgmodel.Instances.create dict in
      let data = G.to_company_graph (G.generate ~n ()) in
      let iid, t_load =
        time (fun () -> Kgmodel.Instances.store inst ~schema_oid:sid data)
      in
      let nn, ne, na = Kgmodel.Instances.element_counts inst iid in
      let back = Kgmodel.Instances.load inst iid in
      let ok =
        PG.node_count back = PG.node_count data
        && PG.edge_count back = PG.edge_count data
      in
      say "%8d | %9d | %9d | %9d | %5b (%.3fs)@." n nn ne na ok t_load)
    [ 200; 400; 800 ];
  let schema = Kgm_finance.Company_schema.load () in
  let prog = Kgm_metalog.Mparser.parse_program Kgm_finance.Control.metalog_sigma in
  let vi = Kgmodel.Views.input_views ~schema ~schema_oid:1 ~instance_oid:123 prog in
  say "@.V_I for the control Σ (the pack/unpack view of Example 6.2):@.";
  List.iteri
    (fun i l -> if i < 6 then say "  %s@." l)
    (String.split_on_char '\n' vi)

(* ------------------------------------------------------------------ *)

let exp9 () =
  header "EXP-9 | Sec. 2.1/2.2: the other intensional components";
  say "%8s | %8s | %8s | %8s | %8s | %8s@." "N" "io>=20%" "cl-exact"
    "cl-rules" "groups" "families";
  say "%s@." (String.make 62 '-');
  List.iter
    (fun n ->
      let o = G.generate ~n () in
      let io = Kgm_finance.Ownership.all_above ~threshold:0.2 o in
      let cl = Kgm_finance.Close_links.compute o in
      let schema = Kgm_finance.Company_schema.load () in
      let dict = Kgmodel.Dictionary.create () in
      let sid = Kgmodel.Dictionary.store dict schema in
      let inst = Kgmodel.Instances.create dict in
      let data = G.to_company_graph o in
      let sigma =
        Kgm_finance.Intensional.owns ^ "\n" ^ Kgm_finance.Intensional.close_links
      in
      ignore
        (Kgmodel.Materialize.materialize ~instances:inst ~schema ~schema_oid:sid
           ~data ~sigma ());
      let cl_rules = List.length (PG.edges_with_label data "CLOSE_LINK") in
      let groups = Kgm_finance.Groups.company_groups o in
      let families = Kgm_finance.Groups.families o in
      say "%8d | %8d | %8d | %8d | %8d | %8d@." n (List.length io)
        (List.length cl) cl_rules (List.length groups) (List.length families))
    [ 100; 200; 400 ];
  say
    "@.Shape check: the depth-3 rule unfolding is sound w.r.t. the exact@.\
     fixpoint (see examples/close_links.exe for per-link verification).@."

(* ------------------------------------------------------------------ *)

let abl1 () =
  header "ABL-1 | restricted+isomorphic chase vs oblivious chase";
  let program_src =
    {| emp(e0). emp(e1). emp(e2).
       mgr(X, M) :- emp(X).
       emp(M) :- mgr(X, M). |}
  in
  let run opts =
    Kgm_vadalog.Engine.run_program ~options:opts
      (Kgm_vadalog.Parser.parse_program program_src)
  in
  let (_, stats1), t1 = time (fun () -> run Kgm_vadalog.Engine.default_options) in
  say "restricted+isomorphic: %d facts, %d rounds, %.4fs -> terminates@."
    stats1.Kgm_vadalog.Engine.new_facts stats1.Kgm_vadalog.Engine.rounds t1;
  (match
     Kgm_error.guard (fun () ->
         run
           { Kgm_vadalog.Engine.default_options with
             Kgm_vadalog.Engine.restricted_chase = false;
             max_facts = 20_000 })
   with
   | Error e ->
       say "oblivious: %s (budget 20k) -> diverges, as expected@."
         (Kgm_error.to_string e)
   | Ok (_, s) ->
       say "oblivious: %d facts (unexpected termination)@."
         s.Kgm_vadalog.Engine.new_facts);
  let o = G.generate ~n:400 () in
  let t_restricted = snd (time (fun () -> Kgm_finance.Control.via_vadalog o)) in
  let t_oblivious =
    snd
      (time (fun () ->
           Kgm_finance.Control.via_vadalog
             ~options:
               { Kgm_vadalog.Engine.default_options with
                 Kgm_vadalog.Engine.restricted_chase = false }
             o))
  in
  say "control (no existential recursion): restricted %.3fs, oblivious %.3fs@."
    t_restricted t_oblivious

let abl2 () =
  header "ABL-2 | semi-naive vs naive evaluation";
  say "%8s | %12s | %12s | %8s@." "chain" "semi-naive s" "naive s" "speedup";
  say "%s@." (String.make 50 '-');
  List.iter
    (fun n ->
      let buf = Buffer.create 1024 in
      for i = 1 to n - 1 do
        Buffer.add_string buf (Printf.sprintf "edge(%d, %d). " i (i + 1))
      done;
      Buffer.add_string buf
        "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";
      let src = Buffer.contents buf in
      let run semi =
        Kgm_vadalog.Engine.run_program
          ~options:
            { Kgm_vadalog.Engine.default_options with
              Kgm_vadalog.Engine.semi_naive = semi }
          (Kgm_vadalog.Parser.parse_program src)
      in
      let (_, s1), t_semi = time (fun () -> run true) in
      let (_, s2), t_naive = time (fun () -> run false) in
      assert (s1.Kgm_vadalog.Engine.new_facts = s2.Kgm_vadalog.Engine.new_facts);
      say "%8d | %12.3f | %12.3f | %7.1fx@." n t_semi t_naive
        (t_naive /. max 1e-9 t_semi))
    [ 40; 80; 160 ]

let abl3 () =
  header "ABL-3 | monotonic streaming vs distinct-at-fixpoint aggregation";
  say
    "The same degree-sum aggregation computed with a monotonic sum@.\
     (streams every partial value, required inside recursion) and a@.\
     distinct stratified sum (one fact per group at fixpoint).@.@.";
  say "%8s | %12s | %12s | %12s | %12s@." "edges" "mono facts" "mono s"
    "dsum facts" "dsum s";
  say "%s@." (String.make 66 '-');
  List.iter
    (fun n ->
      let buf = Buffer.create 1024 in
      let rng = Random.State.make [| 7 |] in
      for _ = 1 to n do
        Buffer.add_string buf
          (Printf.sprintf "e(%d, %d, 0.5). " (Random.State.int rng 50)
             (Random.State.int rng 50))
      done;
      let base = Buffer.contents buf in
      let run src =
        Kgm_vadalog.Engine.run_program (Kgm_vadalog.Parser.parse_program src)
      in
      let (_, s_mono), t_mono =
        time (fun () -> run (base ^ "deg(X, S) :- e(X, Y, W), S = sum(W, <Y>)."))
      in
      let (_, s_dsum), t_dsum =
        time (fun () -> run (base ^ "deg(X, S) :- e(X, Y, W), S = dsum(W, <Y>)."))
      in
      say "%8d | %12d | %12.4f | %12d | %12.4f@." n
        s_mono.Kgm_vadalog.Engine.new_facts t_mono
        s_dsum.Kgm_vadalog.Engine.new_facts t_dsum)
    [ 200; 800; 3200 ];
  say
    "@.Shape check: the monotonic variant derives one fact per partial@.\
     sum (the streaming price recursion-with-aggregation pays); the@.\
     stratified variant derives exactly one fact per group.@."

let abl4 () =
  header "ABL-4 | greedy join ordering vs written order";
  say
    "A pathological body (cross product first, selective atoms last) and@.     the Company-KG materialization, with and without the optimizer.@.@.";
  let bad_order n =
    let buf = Buffer.create 4096 in
    for i = 1 to n do
      Buffer.add_string buf (Printf.sprintf "big(%d). " i)
    done;
    Buffer.add_string buf "tiny(1). ";
    Buffer.add_string buf
      "out(X, Y, Z) :- big(X), big(Y), big(Z), tiny(X), tiny(Y), tiny(Z).";
    Buffer.contents buf
  in
  say "%26s | %12s | %12s@." "workload" "ordered s" "as-written s";
  say "%s@." (String.make 56 '-');
  List.iter
    (fun n ->
      let run reorder =
        snd
          (time (fun () ->
               Kgm_vadalog.Engine.run_program
                 ~options:
                   { Kgm_vadalog.Engine.default_options with
                     Kgm_vadalog.Engine.reorder_body = reorder }
                 (Kgm_vadalog.Parser.parse_program (bad_order n))))
      in
      say "%26s | %12.4f | %12.4f@."
        (Printf.sprintf "cross-product trap n=%d" n)
        (run true) (run false))
    [ 40; 80 ];
  let mat reorder =
    let schema = Kgm_finance.Company_schema.load () in
    let dict = Kgmodel.Dictionary.create () in
    let sid = Kgmodel.Dictionary.store dict schema in
    let inst = Kgmodel.Instances.create dict in
    let data = G.to_company_graph (G.generate ~n:400 ()) in
    let r =
      Kgmodel.Materialize.materialize
        ~options:
          { Kgm_vadalog.Engine.default_options with
            Kgm_vadalog.Engine.reorder_body = reorder }
        ~instances:inst ~schema ~schema_oid:sid ~data
        ~sigma:Kgm_finance.Intensional.full ()
    in
    r.Kgmodel.Materialize.reason_s
  in
  say "%26s | %12.4f | %12.4f@." "materialization n=400" (mat true) (mat false)

(* ------------------------------------------------------------------ *)

(* PAR: the EXP-2 workload at jobs=1 vs jobs=ncores. Correctness is
   jobs-independent by construction (the merge phase is sequential and
   schedule-independent), so the experiment only reports wall-clock and
   cross-checks derived counts. KGM_BENCH_N overrides the instance
   sizes (e.g. KGM_BENCH_N=100 for a CI smoke run). *)
let parallel () =
  header "PAR | parallel semi-naive rounds: jobs=1 vs jobs=ncores";
  let ncores = Domain.recommended_domain_count () in
  (* on a 1-core box jobs=ncores would degenerate to the sequential
     path; always spawn at least one extra domain so the snapshot+merge
     machinery is what gets measured *)
  let jobs_n = max 2 ncores in
  let sizes = Option.fold ~none:[ 400; 800; 1600 ] ~some:(fun n -> [ n ]) (bench_env "N") in
  say
    "EXP-2 materialization (full Σ) at jobs=1 and jobs=%d@.\
     (Domain.recommended_domain_count = %d on this machine).@.@."
    jobs_n ncores;
  say "%8s | %10s | %10s | %8s | %6s@." "N" "jobs=1 s"
    (Printf.sprintf "jobs=%d s" jobs_n)
    "speedup" "agree";
  say "%s@." (String.make 54 '-');
  let opts jobs = { Kgm_vadalog.Engine.default_options with jobs } in
  let rows =
    List.map
      (fun n ->
        let (_, _, r1), t1 =
          time (fun () -> materialization_run ~options:(opts 1) n)
        in
        let (_, _, rn), tn =
          time (fun () -> materialization_run ~options:(opts jobs_n) n)
        in
        let derived r =
          ( r.Kgmodel.Materialize.derived_nodes,
            r.Kgmodel.Materialize.derived_edges,
            r.Kgmodel.Materialize.derived_attrs )
        in
        let agree = derived r1 = derived rn in
        let speedup = t1 /. max 1e-9 tn in
        say "%8d | %10.3f | %10.3f | %7.2fx | %6b@." n t1 tn speedup agree;
        (n, t1, tn, speedup, agree))
      sizes
  in
  if ncores < 2 then
    say
      "@.Note: on a single-core container the parallel path cannot beat@.\
       jobs=1; the figure of merit is then the overhead of@.\
       snapshot+merge, which the speedup column reports honestly.@.";
  write_bench "BENCH_parallel.json"
    [ ("experiment", J.Str "parallel-semi-naive");
      ("workload", J.Str "exp2-materialization");
      ("ncores", J.Int ncores); ("jobs", J.Int jobs_n);
      ("runs",
       J.Arr
         (List.map
            (fun (n, t1, tn, speedup, agree) ->
              J.Obj
                [ ("n", J.Int n); ("jobs1_s", J.Float t1); ("jobsN_s", J.Float tn);
                  ("speedup", J.Float speedup); ("agree", J.Bool agree) ])
            rows)) ]

(* ------------------------------------------------------------------ *)

(* RES: the price of resilience on the EXP-2 workload. Two questions:
   (a) what does periodic checkpointing (default interval) cost over an
   uncheckpointed run, and (b) does crash-then-resume reproduce the
   uninterrupted materialization exactly. The crash is a deterministic
   seeded fault at the "round" site, so the experiment is repeatable.
   KGM_BENCH_N overrides the instance sizes, as in PAR. *)
let resilience () =
  header "RES | resilience: checkpoint overhead + crash-then-resume";
  let sizes = Option.fold ~none:[ 400; 800 ] ~some:(fun n -> [ n ]) (bench_env "N") in
  let ck_dir = Filename.concat (Filename.get_temp_dir_name ()) "kgm_bench_ck" in
  if not (Sys.file_exists ck_dir) then Unix.mkdir ck_dir 0o755;
  let clean_snapshots () =
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".snap" then
          Sys.remove (Filename.concat ck_dir f))
      (Sys.readdir ck_dir)
  in
  let derived r =
    ( r.Kgmodel.Materialize.derived_nodes,
      r.Kgmodel.Materialize.derived_edges,
      r.Kgmodel.Materialize.derived_attrs )
  in
  say
    "EXP-2 materialization (full Σ), plain vs checkpointed every %d@.\
     rounds; then a seeded crash at the \"round\" fault site followed by@.\
     --resume from the surviving snapshots.@.@."
    Kgm_vadalog.Engine.default_checkpoint_every;
  say "%8s | %10s | %10s | %9s | %7s | %5s@." "N" "plain s" "ckpt s"
    "overhead" "crashed" "equal";
  say "%s@." (String.make 62 '-');
  let rows =
    List.map
      (fun n ->
        let (_, _, r_plain), t_plain = time (fun () -> materialization_run n) in
        clean_snapshots ();
        let (_, _, r_ck), t_ck =
          time (fun () -> materialization_run ~checkpoint_dir:ck_dir n)
        in
        let overhead_pct = (t_ck -. t_plain) /. max 1e-9 t_plain *. 100. in
        (* crash-then-resume: a dense snapshot cadence plus a seeded
           fault that fires at some round boundary mid-chase; then
           resume must land on the uninterrupted result *)
        clean_snapshots ();
        Kgm_resilience.Faults.configure "round:0.25,seed=11";
        let crashed =
          try
            ignore
              (materialization_run ~checkpoint_dir:ck_dir ~checkpoint_every:2 n);
            false
          with Kgm_resilience.Fault _ -> true
        in
        Kgm_resilience.Faults.reset ();
        let _, _, r_res =
          materialization_run ~checkpoint_dir:ck_dir ~checkpoint_every:2
            ~resume:crashed n
        in
        let equal =
          derived r_ck = derived r_plain && derived r_res = derived r_plain
        in
        say "%8d | %10.3f | %10.3f | %8.2f%% | %7b | %5b@." n t_plain t_ck
          overhead_pct crashed equal;
        (n, t_plain, t_ck, overhead_pct, crashed, equal))
      sizes
  in
  clean_snapshots ();
  say
    "@.Shape check: overhead stays small (acceptance: <= 10%% at the@.\
     default interval) and the resumed run's derived counts match the@.\
     plain run exactly (the bit-for-bit resume invariant, DESIGN.md).@.";
  write_bench "BENCH_resilience.json"
    [ ("experiment", J.Str "resilience-checkpoint");
      ("workload", J.Str "exp2-materialization");
      ("checkpoint_every", J.Int Kgm_vadalog.Engine.default_checkpoint_every);
      ("runs",
       J.Arr
         (List.map
            (fun (n, t_plain, t_ck, overhead_pct, crashed, equal) ->
              J.Obj
                [ ("n", J.Int n); ("plain_s", J.Float t_plain);
                  ("checkpointed_s", J.Float t_ck);
                  ("overhead_pct", J.Float overhead_pct);
                  ("crashed", J.Bool crashed); ("resume_equal", J.Bool equal) ])
            rows)) ]

(* ------------------------------------------------------------------ *)

(* PLAN: the cost-aware chase planner on vs off, same program, same
   inputs. Three workloads:
   (a) guard-first ownership reachability — the recursive rule names a
       guard the delta does not bind first, as declarative programs
       naturally read; unplanned evaluation scans it unbound once per
       delta fact, the planner probes it last, bound, through a
       prepared index (the headline probe cut);
   (b) the EXP-6 DESCFROM star pattern through the MetaLog bridge —
       its compiled program has a non-recursive DESCFROM stratum whose
       empty fixpoint round the planner skips (the round cut);
   (c) Example 4.2 control (monotonic-sum aggregate) — aggregate rules
       are excluded from planning, so this is the no-regression
       control: identical counters expected either way.
   Correctness bar: outputs bit-for-bit identical planner-on vs -off at
   jobs 1 and 2. KGM_BENCH_N overrides the instance size. *)
let planner_bench () =
  header "PLAN | cost-aware chase planner: on vs off";
  let module V = Kgm_vadalog in
  let n = Option.value ~default:2_000 (bench_env "N") in
  let opts ~planner ~jobs = { V.Engine.default_options with planner; jobs } in
  let canon db =
    List.map (fun p -> (p, V.Database.facts db p)) (V.Database.predicates db)
  in
  let probes (s : V.Engine.stats) =
    List.fold_left
      (fun a (r : V.Engine.rule_stats) -> a + r.V.Engine.rs_probes)
      0 s.V.Engine.per_rule
  in
  say
    "planner on vs off on %d-company instances; \"identical\" compares@.\
     the full fact store (every predicate, insertion order) across@.\
     planner on/off at jobs 1 and 2.@.@."
    n;
  say "%22s | %11s | %11s | %9s | %9s | %6s | %5s@." "workload" "probes off"
    "probes on" "off s" "on s" "rounds" "ident";
  say "%s@." (String.make 88 '-');
  let rows = ref [] in
  let report name (runs : (V.Engine.stats * _ * float) list) =
    match runs with
    | [ (s_on1, c_on1, t_on); (s_off1, c_off1, t_off); (_, c_on2, _);
        (_, c_off2, _) ] ->
        let identical = c_on1 = c_off1 && c_on1 = c_on2 && c_on1 = c_off2 in
        let p_on = probes s_on1 and p_off = probes s_off1 in
        let reduction =
          float_of_int (p_off - p_on) /. float_of_int (max 1 p_off) *. 100.
        in
        say "%22s | %11d | %11d | %9.3f | %9.3f | %2d/%2d | %5b@." name p_off
          p_on t_off t_on s_on1.V.Engine.rounds s_off1.V.Engine.rounds
          identical;
        rows :=
          ( name, s_on1.V.Engine.rounds, s_off1.V.Engine.rounds, p_on, p_off,
            reduction, t_on, t_off, identical )
          :: !rows
    | _ -> assert false
  in
  (* (a) guard-first reachability over chains of depth 20 *)
  let chains = max 1 (n / 20) and len = 20 in
  let reach_prog =
    let buf = Buffer.create (n * 24) in
    for c = 0 to chains - 1 do
      for i = 0 to len - 1 do
        let v = (c * len) + i in
        Buffer.add_string buf (Printf.sprintf "company(%d). " v);
        if i < len - 1 then
          Buffer.add_string buf (Printf.sprintf "own(%d, %d, 0.6). " v (v + 1))
      done
    done;
    Buffer.add_string buf
      "reach(X, Y) :- company(X), own(X, Y, W), company(Y), W > 0.0. \
       reach(X, Z) :- company(Z), reach(X, Y), own(Y, Z, W), W > 0.0.";
    V.Parser.parse_program (Buffer.contents buf)
  in
  report "reach-guard-first"
    (List.map
       (fun (planner, jobs) ->
         let (db, s), t =
           time (fun () ->
               V.Engine.run_program ~options:(opts ~planner ~jobs) reach_prog)
         in
         (s, canon db, t))
       [ (true, 1); (false, 1); (true, 2); (false, 2) ]);
  (* (b) EXP-6 star: recursive mtv closure + non-recursive DESCFROM *)
  report "exp6-descfrom-star"
    (List.map
       (fun (planner, jobs) ->
         let dict = Kgmodel.Dictionary.create () in
         let sid = Kgmodel.Dictionary.store dict (chain_schema 16) in
         let (nodes, edges, s), t =
           time (fun () ->
               Kgm_metalog.Pg_bridge.reason_on_graph
                 ~options:(opts ~planner ~jobs) (descfrom_program sid)
                 (Kgmodel.Dictionary.graph dict))
         in
         (s, (nodes, edges, s.V.Engine.new_facts, s.V.Engine.nulls_invented), t))
       [ (true, 1); (false, 1); (true, 2); (false, 2) ]);
  (* (c) Example 4.2 control: the aggregate rule is never replanned *)
  let control_prog =
    let buf = Buffer.create (n * 24) in
    for c = 0 to chains - 1 do
      for i = 0 to len - 1 do
        let v = (c * len) + i in
        Buffer.add_string buf (Printf.sprintf "company(%d). " v);
        if i < len - 1 then
          Buffer.add_string buf (Printf.sprintf "own(%d, %d, 0.6). " v (v + 1))
      done
    done;
    Buffer.add_string buf
      "controls(X, X) :- company(X). \
       controls(X, Y) :- controls(X, Z), own(Z, Y, W), V = sum(W, <Z>), \
       V > 0.5.";
    V.Parser.parse_program (Buffer.contents buf)
  in
  report "control-aggregate"
    (List.map
       (fun (planner, jobs) ->
         let (db, s), t =
           time (fun () ->
               V.Engine.run_program ~options:(opts ~planner ~jobs) control_prog)
         in
         (s, canon db, t))
       [ (true, 1); (false, 1); (true, 2); (false, 2) ]);
  let rows = List.rev !rows in
  say
    "@.Shape check: identical everywhere; probes_on <= probes_off with@.\
     >= 30%% cut on reach-guard-first; rounds_on <= rounds_off with a@.\
     strict cut on exp6-descfrom-star (skipped non-recursive strata).@.";
  write_bench "BENCH_planner.json"
    [ ("experiment", J.Str "chase-planner"); ("n", J.Int n);
      ("workloads",
       J.Arr
         (List.map
            (fun (name, rounds_on, rounds_off, p_on, p_off, reduction, t_on,
                  t_off, identical) ->
              J.Obj
                [ ("name", J.Str name); ("rounds_on", J.Int rounds_on);
                  ("rounds_off", J.Int rounds_off); ("probes_on", J.Int p_on);
                  ("probes_off", J.Int p_off);
                  ("probe_reduction_pct", J.Float reduction);
                  ("on_s", J.Float t_on); ("off_s", J.Float t_off);
                  ("identical", J.Bool identical) ])
            rows)) ]

(* ------------------------------------------------------------------ *)

(* INC: incremental maintenance vs full re-chase on the ownership
   reachability workload (chains of depth 20, as PLAN (a)). Two update
   scenarios per configuration: a single mid-chain retraction (the
   delete-and-rederive cone) and a 1% insert batch hung off the chain
   tails (delta propagation), applied cumulatively. A second workload
   (the [agg-] rows) runs the same scenarios against the company-control
   program, whose monotonic [sum(W, <Z>)] is served by counting
   maintenance — no wholesale stratum, no fallback. After every
   maintain the maintained database is compared — canonically, labeled
   nulls renamed — against a from-scratch chase of the updated EDB, at
   jobs 1 and 2, planner on and off. KGM_BENCH_N overrides the instance
   size. *)
let incremental_bench () =
  header "INC | incremental maintenance (DRed): update latency vs re-chase";
  let module V = Kgm_vadalog in
  let n = Option.value ~default:2_000 (bench_env "N") in
  let chains = max 1 (n / 20) and len = 20 in
  let edb =
    List.concat
      (List.init chains (fun c ->
           List.concat
             (List.init len (fun i ->
                  let v = (c * len) + i in
                  ("company", [ Value.Int v ])
                  :: (if i < len - 1 then
                        [ ("own",
                           [ Value.Int v; Value.Int (v + 1); Value.Float 0.6 ])
                        ]
                      else [])))))
  in
  let rules =
    V.Parser.parse_program
      "reach(X, Y) :- company(X), own(X, Y, W), company(Y), W > 0.0. \
       reach(X, Z) :- reach(X, Y), own(Y, Z, W), company(Z), W > 0.0."
  in
  (* the control program over the same topology: every 0.6 edge clears
     the 0.5 threshold, so control propagates down each chain and a
     mid-chain retraction empties every group below it *)
  let control_rules =
    V.Parser.parse_program
      "controls(X, X) :- company(X). \
       controls(X, Y) :- controls(X, Z), own(Z, Y, W), V = sum(W, <Z>), \
       V > 0.5."
  in
  (* single retraction: a mid-chain edge, so half of chain 0's closure
     dies and nothing is rederivable *)
  let mid = len / 2 in
  let retract1 =
    ("own", [| Value.Int (mid - 1); Value.Int mid; Value.Float 0.6 |])
  in
  (* 1% insert batch: new companies hung off chain tails, so every
     ancestor in the host chain gains a reach fact *)
  let batch_n = max 1 (n / 100) in
  let batch =
    List.concat
      (List.init batch_n (fun i ->
           let v = (chains * len) + i in
           let tail = ((i mod chains) * len) + len - 1 in
           [ ("company", [| Value.Int v |]);
             ("own", [| Value.Int tail; Value.Int v; Value.Float 0.6 |]) ]))
  in
  let rechase rules st options =
    time (fun () ->
        let db = V.Database.create () in
        List.iter
          (fun (p, f) -> ignore (V.Database.add db p f))
          (V.Incremental.edb_facts st);
        ignore (V.Engine.run ~options { rules with V.Rule.facts = [] } db);
        db)
  in
  say
    "%d companies in %d chains; single mid-chain retraction, then a 1%%@.\
     insert batch (%d facts), on the reach program and again on the@.\
     company-control program (agg- rows, counting maintenance of the@.\
     monotonic sum). Maintained database checked against a from-scratch@.\
     chase of the updated EDB after every batch.@.@."
    (chains * len) chains
    (2 * batch_n);
  say "%6s | %7s | %15s | %11s | %10s | %8s | %5s@." "jobs" "planner"
    "scenario" "maintain s" "rechase s" "speedup" "equal";
  say "%s@." (String.make 77 '-');
  let rows = ref [] in
  let run_matrix prefix rules =
    List.iter
      (fun (jobs, planner) ->
        let options = { V.Engine.default_options with planner; jobs } in
        let program = { rules with V.Rule.facts = edb } in
        let st, _ = V.Incremental.chase ~options program in
        let scenario name ~inserts ~retracts =
          let u = V.Incremental.maintain st ~inserts ~retracts in
          let db_ref, t_rechase = rechase rules st options in
          let equal =
            V.Incremental.equal_facts (V.Incremental.db st) db_ref
          in
          let speedup = t_rechase /. max 1e-9 u.V.Incremental.u_elapsed_s in
          say "%6d | %7b | %15s | %11.5f | %10.5f | %7.1fx | %5b@." jobs
            planner name u.V.Incremental.u_elapsed_s t_rechase speedup equal;
          rows := (jobs, planner, name, u, t_rechase, speedup, equal) :: !rows
        in
        scenario (prefix ^ "retract-1") ~inserts:[] ~retracts:[ retract1 ];
        scenario (prefix ^ "insert-1pct") ~inserts:batch ~retracts:[])
      [ (1, true); (1, false); (2, true); (2, false) ]
  in
  run_matrix "" rules;
  run_matrix "agg-" control_rules;
  let rows = List.rev !rows in
  say
    "@.Shape check: equal everywhere, no fallback — including the agg-@.\
     rows, where the retraction decrements sum(W, <Z>) group state and@.\
     only threshold-crossing control facts cascade; both scenarios@.\
     maintain at >= 5x lower wall-clock than the full re-chase at the@.\
     default size — the update touches a sliver of the closure.@.\
     Planner on/off no longer matters here: seeded passes are delta@.\
     rounds by construction, so maintenance always uses delta-first@.\
     plans and their hash indexes ([options.planner] only ablates the@.\
     from-scratch chase). Written-order seeded joins used to scan the@.\
     saturated closure once per seed fact, putting planner-off@.\
     insertion at 0.32-0.36x — slower than re-chasing.@.";
  write_bench "BENCH_incremental.json"
    [ ("experiment", J.Str "incremental-maintenance");
      ("workload", J.Str "ownership-reach-chains"); ("n", J.Int n);
      ("runs",
       J.Arr
         (List.map
            (fun (jobs, planner, name, (u : V.Incremental.update_stats),
                  t_rechase, speedup, equal) ->
              J.Obj
                [ ("jobs", J.Int jobs); ("planner", J.Bool planner);
                  ("scenario", J.Str name);
                  ("maintain_s", J.Float u.V.Incremental.u_elapsed_s);
                  ("rechase_s", J.Float t_rechase); ("speedup", J.Float speedup);
                  ("cone", J.Int u.V.Incremental.u_cone);
                  ("deleted", J.Int u.V.Incremental.u_deleted);
                  ("rederived", J.Int u.V.Incremental.u_rederived);
                  ("derived", J.Int u.V.Incremental.u_derived);
                  ("strata", J.Int u.V.Incremental.u_strata);
                  ("agg_groups", J.Int u.V.Incremental.u_agg_groups);
                  ("fallback", J.Bool u.V.Incremental.u_fallback);
                  ("maintained_equal", J.Bool equal) ])
            rows)) ]

(* ------------------------------------------------------------------ *)

(* OBS: what the full observability stack costs. Same guard-first
   reachability workload as PLAN (a); the instrumented run carries an
   enabled telemetry collector, the JSONL flight recorder writing to a
   real file, and provenance retention ([options.provenance]) — the
   configuration `reason --journal j.jsonl --explain ... --metrics-out`
   uses. Wall time is the min over [reps] alternating runs (min is the
   stable estimator at millisecond scale); the bar is <= 10% overhead,
   guarded in CI. Derived facts must be bit-identical instrumented or
   not — observation never changes the chase. KGM_BENCH_N overrides
   the instance size. *)
let observability_bench () =
  header "OBS | flight recorder + provenance: overhead vs plain chase";
  let module V = Kgm_vadalog in
  let n = Option.value ~default:2_000 (bench_env "N") in
  let chains = max 1 (n / 20) and len = 20 in
  let reach_prog =
    let buf = Buffer.create (n * 24) in
    for c = 0 to chains - 1 do
      for i = 0 to len - 1 do
        let v = (c * len) + i in
        Buffer.add_string buf (Printf.sprintf "company(%d). " v);
        if i < len - 1 then
          Buffer.add_string buf (Printf.sprintf "own(%d, %d, 0.6). " v (v + 1))
      done
    done;
    Buffer.add_string buf
      "reach(X, Y) :- company(X), own(X, Y, W), company(Y), W > 0.0. \
       reach(X, Z) :- company(Z), reach(X, Y), own(Y, Z, W), W > 0.0.";
    V.Parser.parse_program (Buffer.contents buf)
  in
  let canon db =
    List.map (fun p -> (p, V.Database.facts db p)) (V.Database.predicates db)
  in
  let plain () =
    let (db, s), t = time (fun () -> V.Engine.run_program reach_prog) in
    (t, canon db, s, 0)
  in
  let instrumented () =
    let jpath = Filename.temp_file "kgm_obs" ".jsonl" in
    let tele = Kgm_telemetry.create () in
    let jr = Kgm_telemetry.Journal.create ~path:jpath () in
    let options =
      { V.Engine.default_options with V.Engine.provenance = true }
    in
    let (db, s), t =
      time (fun () ->
          V.Engine.run_program ~options ~telemetry:tele ~journal:jr
            reach_prog)
    in
    Kgm_telemetry.Journal.close jr;
    let events =
      match Kgm_telemetry.Journal.read_file jpath with
      | Ok evs -> List.length evs
      | Error msg -> failwith ("unreadable journal: " ^ msg)
    in
    Sys.remove jpath;
    (t, canon db, s, events)
  in
  let reps = 9 in
  (* alternate a warmup of each before timing, so allocator state is
     comparable *)
  ignore (plain ());
  ignore (instrumented ());
  (* interleave the two configurations pairwise (and alternate the order
     inside each pair) so background load hits both equally, then take
     the min over reps of each: the min is the quietest-moment estimate
     of the true cost, and interleaving keeps a load burst from landing
     entirely on one side *)
  let runs_plain = ref [] and runs_instr = ref [] in
  for r = 1 to reps do
    if r mod 2 = 1 then begin
      runs_plain := plain () :: !runs_plain;
      runs_instr := instrumented () :: !runs_instr
    end
    else begin
      runs_instr := instrumented () :: !runs_instr;
      runs_plain := plain () :: !runs_plain
    end
  done;
  let best runs =
    let t =
      List.fold_left (fun acc (t, _, _, _) -> min acc t) infinity runs
    in
    let _, c, s, events = List.hd runs in
    (t, c, s, events)
  in
  let t_plain, c_plain, s_plain, _ = best !runs_plain in
  let t_instr, c_instr, _, events = best !runs_instr in
  let identical = c_plain = c_instr in
  let overhead_pct = (t_instr -. t_plain) /. max 1e-9 t_plain *. 100. in
  say
    "guard-first reachability, %d companies in %d chains, %d facts@.\
     derived; instrumented = telemetry collector + JSONL journal (to a@.\
     file) + provenance retention; min over %d runs each.@.@."
    (chains * len) chains s_plain.V.Engine.new_facts reps;
  say "%14s | %12s | %12s | %9s | %7s | %5s@." "workload" "plain s"
    "instrumented" "overhead" "events" "ident";
  say "%s@." (String.make 74 '-');
  say "%14s | %12.5f | %12.5f | %8.2f%% | %7d | %5b@." "reach-chains"
    t_plain t_instr overhead_pct events identical;
  say
    "@.Shape check: identical facts either way; overhead <= 10%% — one@.\
     buffered JSONL line per round/batch/plan event and one hash-table@.\
     insert per derivation do not change the asymptotics of the chase.@.";
  write_bench "BENCH_observability.json"
    [ ("experiment", J.Str "observability-overhead");
      ("workload", J.Str "ownership-reach-chains"); ("n", J.Int n);
      ("reps", J.Int reps); ("plain_s", J.Float t_plain);
      ("instrumented_s", J.Float t_instr);
      ("overhead_pct", J.Float overhead_pct);
      ("journal_events", J.Int events);
      ("new_facts", J.Int s_plain.V.Engine.new_facts);
      ("identical", J.Bool identical) ]

(* ------------------------------------------------------------------ *)
(* SRV: served-query throughput through kgmodel serve's socket at
   n >= 10^6 facts. A LUBM/BSBM-style scale-up of the paper's
   ownership graph: independent 5-company chains (company + own EDB),
   with the reach closure derived from the chains whose heads carry a
   [seed] marker — the 16 queried heads plus the scratch chain. The
   extensional bulk rides through every epoch copy/freeze/publish and
   its indexes back every lookup, while the recursive rules touch only
   the seeded chains, keeping materialization linear in n (chasing the
   full closure over 10^6 facts is the open chase-scalability item in
   ROADMAP.md, not what this bench measures). Phases, all closed-loop
   and concurrent:

     close     — one connection per request (the PR-8 protocol):
                 connect/accept/close dominates the cost of a point
                 query, the baseline keep-alive must beat >= 2x
     keepalive — persistent connections, one request in flight
     pipelined — persistent connections, depth-16 pipelining
     contended — keepalive while a writer streams update batches that
                 only touch a scratch chain: every batch publishes a
                 new epoch of the million-fact store, query answers
                 must stay bit-identical across workers x epochs, and
                 each /update round trip is timed (update_p50_ms:
                 update-to-visible, which publishing by replay keeps
                 independent of n)

   The CI guard over BENCH_server.json asserts keep-alive beats close,
   contended within 10% of keepalive on req/s and p99, identical
   answers, shed = 0 and epoch = batches applied. KGM_BENCH_N
   overrides the fact count; KGM_BENCH_REQS the per-client request
   count. *)
let server_bench () =
  header "SRV | serve throughput: keep-alive + domain readers at 10^6 facts";
  let module V = Kgm_vadalog in
  let module Inc = Kgm_vadalog.Incremental in
  let n = Option.value ~default:1_000_000 (bench_env "N") in
  let reqs = Option.value ~default:1_000 (bench_env "REQS") in
  let clients = Option.value ~default:4 (bench_env "CLIENTS") in
  let workers = Option.value ~default:4 (bench_env "WORKERS") in
  let reps = 3 in
  (* one chain: 5 company + 4 own EDB = 9 facts; the reach closure is
     derived only for seeded heads (16 queried + scratch), so the
     chase stays linear in n *)
  let len = 5 in
  let facts_per_chain = (2 * len) - 1 in
  let chains = max 16 ((n + facts_per_chain - 1) / facts_per_chain) in
  let scratch = chains * len in
  let n_queries = 16 in
  let head k = k * (chains / n_queries) * len in
  let db = V.Database.create () in
  let t0 = Unix.gettimeofday () in
  for c = 0 to chains - 1 do
    for i = 0 to len - 1 do
      let v = (c * len) + i in
      ignore (V.Database.add db "company" [| Value.Int v |]);
      if i < len - 1 then
        ignore
          (V.Database.add db "own"
             [| Value.Int v; Value.Int (v + 1); Value.Float 0.6 |])
    done
  done;
  (* the scratch chain the update stream toggles: its companies exist,
     its own edges come and go, the queried chains never change *)
  ignore (V.Database.add db "company" [| Value.Int scratch |]);
  ignore (V.Database.add db "company" [| Value.Int (scratch + 1) |]);
  for k = 0 to n_queries - 1 do
    ignore (V.Database.add db "seed" [| Value.Int (head k) |])
  done;
  ignore (V.Database.add db "seed" [| Value.Int scratch |]);
  let prog =
    V.Parser.parse_program
      "reach(X, Y) :- seed(X), own(X, Y, W), W > 0.0. \
       reach(X, Z) :- reach(X, Y), own(Y, Z, W), W > 0.0."
  in
  let session, chase_stats = Inc.chase ~db prog in
  let n_facts = V.Database.total (Inc.db session) in
  say "materialized %d facts (%d chains, %d derived) in %.1fs@." n_facts
    chains chase_stats.V.Engine.new_facts
    (Unix.gettimeofday () -. t0);
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kgm_bench_%d.sock" (Unix.getpid ()))
  in
  let srv =
    Kgm_server.create
      { (Kgm_server.default_config ~sock) with workers }
      ~session
  in
  Kgm_server.start srv;
  if not (Kgm_server.Client.wait_ready sock) then
    failwith "bench server never became ready";
  (* 16 fixed point queries on the seeded chain heads spread across
     the graph; every client must see the same 16 answers in every
     phase *)
  let queries =
    Array.init n_queries (fun k -> Printf.sprintf "reach(%d, X)" (head k))
  in
  (* one closed-loop client: [reqs] requests round-robin over the
     query set, per-request latencies, and a digest over the answer
     set (first occurrence of each query; later occurrences must match
     it bit-for-bit, across epochs) *)
  let run_client mode lats k0 =
    let answers = Array.make n_queries None in
    let note k body =
      match answers.(k) with
      | None -> answers.(k) <- Some body
      | Some prev -> if not (String.equal prev body) then failwith "answer drift"
    in
    (match mode with
    | `Close ->
        for i = 0 to reqs - 1 do
          let k = (k0 + i) mod n_queries in
          let t0 = Unix.gettimeofday () in
          let code, body =
            Kgm_server.Client.request ~body:queries.(k) ~sock ~meth:"POST"
              ~path:"/query" ()
          in
          lats.(i) <- Unix.gettimeofday () -. t0;
          if code <> 200 then failwith (Printf.sprintf "query answered %d" code);
          note k body
        done
    | `Keepalive ->
        let c = Kgm_server.Client.connect sock in
        Fun.protect
          ~finally:(fun () -> Kgm_server.Client.close c)
          (fun () ->
            for i = 0 to reqs - 1 do
              let k = (k0 + i) mod n_queries in
              let t0 = Unix.gettimeofday () in
              let code, body =
                Kgm_server.Client.request_on c ~body:queries.(k) ~meth:"POST"
                  ~path:"/query" ()
              in
              lats.(i) <- Unix.gettimeofday () -. t0;
              if code <> 200 then
                failwith (Printf.sprintf "query answered %d" code);
              note k body
            done)
    | `Pipelined ->
        (* depth-16 pipelining: the whole query set per batch, one
           write + 16 framed reads; per-request latency is the batch
           amortized *)
        let c = Kgm_server.Client.connect sock in
        Fun.protect
          ~finally:(fun () -> Kgm_server.Client.close c)
          (fun () ->
            let bodies = Array.to_list queries in
            let i = ref 0 in
            while !i < reqs do
              let depth = min n_queries (reqs - !i) in
              let batch = List.filteri (fun k _ -> k < depth) bodies in
              let t0 = Unix.gettimeofday () in
              let answers =
                Kgm_server.Client.pipeline c ~meth:"POST" ~path:"/query" batch
              in
              let per = (Unix.gettimeofday () -. t0) /. float_of_int depth in
              List.iteri
                (fun k (code, body) ->
                  if code <> 200 then
                    failwith (Printf.sprintf "query answered %d" code);
                  note k body;
                  lats.(!i + k) <- per)
                answers;
              i := !i + depth
            done));
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            (Array.to_list
               (Array.map (function Some b -> b | None -> "") answers))))
  in
  (* all [clients] threads at once; wall clock over the whole fan-out
     (closed loop: every client always has exactly one request in
     flight) *)
  let run_phase mode =
    let lats = Array.init clients (fun _ -> Array.make reqs 0.) in
    let digests = Array.make clients "" in
    let t0 = Unix.gettimeofday () in
    let ths =
      List.init clients (fun c ->
          Thread.create
            (fun () ->
              try digests.(c) <- run_client mode lats.(c) c
              with e ->
                Printf.eprintf "[bench] client %d (%s): %s\n%!" c
                  (match mode with
                  | `Close -> "close"
                  | `Keepalive -> "keepalive"
                  | `Pipelined -> "pipelined")
                  (Printexc.to_string e))
            ())
    in
    List.iter Thread.join ths;
    let wall = Unix.gettimeofday () -. t0 in
    let all = Array.concat (Array.to_list lats) in
    Array.sort Float.compare all;
    let pct p =
      all.(int_of_float (p *. float_of_int (Array.length all - 1)))
    in
    ( float_of_int (clients * reqs) /. max 1e-9 wall,
      pct 0.5 *. 1e3,
      pct 0.99 *. 1e3,
      digests )
  in
  let batches = Atomic.make 0 in
  (* /update round trips of the contended phases (one writer thread) *)
  let update_lats = ref [] in
  let under_stream f =
    let stop = Atomic.make false in
    let writer =
      Thread.create
        (fun () ->
          let k = ref 0 in
          while not (Atomic.get stop) do
            let body =
              if !k mod 2 = 0 then
                Printf.sprintf "+own(%d, %d, 0.6).\n" scratch (scratch + 1)
              else Printf.sprintf "-own(%d, %d, 0.6).\n" scratch (scratch + 1)
            in
            let t0 = Unix.gettimeofday () in
            let code, _ =
              Kgm_server.Client.request ~body ~sock ~meth:"POST"
                ~path:"/update" ()
            in
            if code = 200 then begin
              update_lats := (Unix.gettimeofday () -. t0) :: !update_lats;
              incr k;
              Atomic.incr batches
            end;
            (* pace the stream: the phase measures readers riding
               through epoch republishes, not readers starved by a
               writer busy-loop. At full scale a batch costs far more
               than the pause, so pacing changes nothing there; at
               smoke scale it keeps the batch cheapness from turning
               the writer into a CPU-bound spin. *)
            Thread.delay 0.01
          done)
        ()
    in
    let r = f () in
    Atomic.set stop true;
    Thread.join writer;
    r
  in
  (* warmup: registers the reach pattern (so later epoch publishes
     prepare its index) and pays the epoch-0 cache build once *)
  ignore (run_phase `Keepalive);
  (* medians over reps, not best-of: on a contended box one lucky
     scheduling burst would otherwise dominate a phase and flap the
     contended-vs-quiescent CI guard *)
  let samples = Array.init 4 (fun _ -> ref []) in
  let digest_ref = ref "" in
  let all_identical = ref true in
  let absorb i ((req_s, p50, p99, digests) : float * float * float * _) =
    Array.iter
      (fun d ->
        if !digest_ref = "" then digest_ref := d
        else if d <> !digest_ref then all_identical := false)
      digests;
    samples.(i) := (req_s, p50, p99) :: !(samples.(i))
  in
  for _ = 1 to reps do
    absorb 0 (run_phase `Close);
    absorb 1 (run_phase `Keepalive);
    absorb 2 (run_phase `Pipelined);
    absorb 3 (under_stream (fun () -> run_phase `Keepalive))
  done;
  Kgm_server.drain srv;
  let stats = Kgm_server.run_until_drained srv in
  let applied = Atomic.get batches in
  let published = stats.Kgm_server.st_epoch = applied in
  let median proj i =
    let xs = List.map proj !(samples.(i)) |> List.sort Float.compare in
    List.nth xs (List.length xs / 2)
  in
  let phase i =
    ( median (fun (r, _, _) -> r) i,
      median (fun (_, p, _) -> p) i,
      median (fun (_, _, p) -> p) i )
  in
  let close_r, close_50, close_99 = phase 0 in
  let ka_r, ka_50, ka_99 = phase 1 in
  let pl_r, pl_50, pl_99 = phase 2 in
  let ct_r, ct_50, ct_99 = phase 3 in
  (* cross-phase comparisons pair the phases rep by rep — the phases
     of one rep run back to back, so host noise hits both sides of a
     pair, where medians of independently-noisy phases would not
     cancel — and take the median pairwise ratio/delta *)
  let paired i j combine =
    let xs = List.map2 combine !(samples.(i)) !(samples.(j)) in
    let xs = List.sort Float.compare xs in
    List.nth xs (List.length xs / 2)
  in
  let speedup_ka =
    paired 0 1 (fun (cl, _, _) (ka, _, _) -> ka /. Float.max 1e-9 cl)
  in
  let speedup_pl =
    paired 0 2 (fun (cl, _, _) (pl, _, _) -> pl /. Float.max 1e-9 cl)
  in
  let req_ratio (ka, _, _) (ct, _, _) = ct /. Float.max 1e-9 ka in
  let ct_req_ratio = paired 1 3 req_ratio in
  (* best per-rep ratio: a reader actually blocking on the writer
     would depress every rep, while host scheduling noise hits reps
     at random — so the best rep is the systematic-regression signal
     a shared CI runner can guard tightly *)
  let ct_req_ratio_best =
    List.map2 req_ratio !(samples.(1)) !(samples.(3))
    |> List.fold_left Float.max neg_infinity
  in
  let ct_p50_delta = paired 1 3 (fun (_, ka, _) (_, ct, _) -> ct -. ka) in
  let update_samples = List.length !update_lats in
  let update_p50 =
    match List.sort Float.compare !update_lats with
    | [] -> nan
    | xs -> 1e3 *. List.nth xs (update_samples / 2)
  in
  let ct_p99_delta = paired 1 3 (fun (_, _, ka) (_, _, ct) -> ct -. ka) in
  say
    "@.%d clients x %d point queries per phase, median of %d reps;@.\
     pipelined = keep-alive with depth-%d HTTP/1.1 pipelining;@.\
     contended = keep-alive while a writer re-publishes the epoch@.\
     with scratch-chain update batches.@.@."
    clients reqs reps n_queries;
  say "%12s | %10s | %9s | %9s@." "phase" "req/s" "p50 ms" "p99 ms";
  say "%s@." (String.make 50 '-');
  say "%12s | %10.0f | %9.3f | %9.3f@." "close" close_r close_50 close_99;
  say "%12s | %10.0f | %9.3f | %9.3f@." "keepalive" ka_r ka_50 ka_99;
  say "%12s | %10.0f | %9.3f | %9.3f@." "pipelined" pl_r pl_50 pl_99;
  say "%12s | %10.0f | %9.3f | %9.3f@." "contended" ct_r ct_50 ct_99;
  say
    "@.keep-alive speedup: %.2fx (%.2fx pipelined); contended keeps@.\
     %.0f%% of keep-alive req/s (p50 %+.3f ms, p99 %+.3f ms);@.\
     answers identical across clients, phases and epochs: %b;@.\
     %d update batches published (epoch %d), %d shed, %d faults;@.\
     update round trip p50 %.3f ms over %d batches.@."
    speedup_ka speedup_pl
    (100. *. ct_req_ratio)
    ct_p50_delta ct_p99_delta !all_identical applied
    stats.Kgm_server.st_epoch stats.Kgm_server.st_shed
    stats.Kgm_server.st_faults update_p50 update_samples;
  let phase (r, p50, p99) =
    J.Obj [ ("req_s", J.Float r); ("p50_ms", J.Float p50); ("p99_ms", J.Float p99) ]
  in
  write_bench "BENCH_server.json"
    [ ("experiment", J.Str "server-throughput");
      ("workload", J.Str "company-ownership-chains");
      ("n_facts", J.Int n_facts); ("clients", J.Int clients);
      ("requests_per_client", J.Int reqs); ("reps", J.Int reps);
      ("close", phase (close_r, close_50, close_99));
      ("keepalive", phase (ka_r, ka_50, ka_99));
      ("pipelined", phase (pl_r, pl_50, pl_99));
      ("contended", phase (ct_r, ct_50, ct_99));
      ("speedup_keepalive", J.Float speedup_ka);
      ("speedup_pipelined", J.Float speedup_pl);
      ("contended_req_s_ratio", J.Float ct_req_ratio);
      ("contended_req_s_ratio_best", J.Float ct_req_ratio_best);
      ("contended_p50_delta_ms", J.Float ct_p50_delta);
      ("contended_p99_delta_ms", J.Float ct_p99_delta);
      ("identical_answers", J.Bool !all_identical);
      ("update_batches", J.Int applied);
      ("update_p50_ms", J.Float update_p50);
      ("update_samples", J.Int update_samples);
      ("epoch", J.Int stats.Kgm_server.st_epoch);
      ("shed", J.Int stats.Kgm_server.st_shed);
      ("published_every_batch", J.Bool published) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment *)

let bechamel_table () =
  header "Bechamel micro-benchmarks (one per experiment)";
  let open Bechamel in
  let o_small = G.generate ~n:2_000 () in
  let dict_setup () =
    let dict = Kgmodel.Dictionary.create () in
    let sid = Kgmodel.Dictionary.store dict (Kgm_finance.Company_schema.load ()) in
    (dict, sid)
  in
  let tc_src =
    let buf = Buffer.create 1024 in
    for i = 1 to 59 do
      Buffer.add_string buf (Printf.sprintf "edge(%d, %d). " i (i + 1))
    done;
    Buffer.add_string buf
      "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";
    Buffer.contents buf
  in
  let small_data = G.to_company_graph (G.generate ~n:200 ()) in
  let o_400 = G.generate ~n:400 () in
  let tests =
    [ Test.make ~name:"exp1-topology-stats-2k"
        (Staged.stage (fun () ->
             ignore (Kgm_finance.Fin_stats.compute o_small.G.graph)));
      Test.make ~name:"exp2-materialize-n100"
        (Staged.stage (fun () -> ignore (materialization_run 100)));
      Test.make ~name:"exp3-ssst-pg"
        (Staged.stage (fun () ->
             let dict, sid = dict_setup () in
             ignore
               (Kgmodel.Ssst.translate dict (Kgm_targets.Pg_model.mapping ()) sid)));
      Test.make ~name:"exp4-ssst-relational"
        (Staged.stage (fun () ->
             let dict, sid = dict_setup () in
             ignore
               (Kgmodel.Ssst.translate dict
                  (Kgm_targets.Relational_model.mapping ())
                  sid)));
      Test.make ~name:"exp5-control-native-2k"
        (Staged.stage (fun () -> ignore (Kgm_finance.Control.all_pairs o_small)));
      Test.make ~name:"exp5-control-vadalog-400"
        (Staged.stage (fun () -> ignore (Kgm_finance.Control.via_vadalog o_400)));
      Test.make ~name:"exp6-descfrom-depth16"
        (Staged.stage (fun () ->
             let dict = Kgmodel.Dictionary.create () in
             let sid = Kgmodel.Dictionary.store dict (chain_schema 16) in
             ignore
               (Kgm_metalog.Pg_bridge.reason_on_graph (descfrom_program sid)
                  (Kgmodel.Dictionary.graph dict))));
      Test.make ~name:"exp8-instance-load-n200"
        (Staged.stage (fun () ->
             let dict, sid = dict_setup () in
             let inst = Kgmodel.Instances.create dict in
             ignore (Kgmodel.Instances.store inst ~schema_oid:sid small_data)));
      Test.make ~name:"exp9-close-links-native-2k"
        (Staged.stage (fun () -> ignore (Kgm_finance.Close_links.compute o_small)));
      Test.make ~name:"abl2-tc-chain-60"
        (Staged.stage (fun () ->
             ignore
               (Kgm_vadalog.Engine.run_program
                  (Kgm_vadalog.Parser.parse_program tc_src)))) ]
  in
  say "%-34s | %14s@." "benchmark" "ns/run";
  say "%s@." (String.make 52 '-');
  List.iter
    (fun test ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg =
        Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
      in
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analysis = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> say "%-34s | %14.0f@." name est
          | _ -> say "%-34s | %14s@." name "n/a")
        analysis)
    tests

(* ------------------------------------------------------------------ *)

let all =
  [ ("exp1", exp1); ("exp2", exp2); ("exp3", exp3); ("exp4", exp4);
    ("exp5", exp5); ("exp6", exp6); ("exp7", exp7); ("exp8", exp8);
    ("exp9", exp9); ("abl1", abl1); ("abl2", abl2); ("abl3", abl3);
    ("abl4", abl4); ("parallel", parallel); ("resilience", resilience);
    ("planner", planner_bench); ("incremental", incremental_bench);
    ("observability", observability_bench); ("server", server_bench);
    ("bechamel", bechamel_table) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected =
    if args = [] then all
    else
      List.filter_map
        (fun a ->
          match List.assoc_opt a all with
          | Some f -> Some (a, f)
          | None ->
              Format.eprintf "unknown experiment %s@." a;
              None)
        args
  in
  List.iter
    (fun (name, f) ->
      Kgm_telemetry.with_span tele ~cat:"bench" ("bench." ^ name) f;
      Kgm_telemetry.count tele ("bench." ^ name ^ ".runs"))
    selected;
  if selected <> [] then begin
    Kgm_telemetry.write_chrome_trace ~process_name:"kgmodel-bench"
      "BENCH_telemetry.json" tele;
    say "@.telemetry written to BENCH_telemetry.json (%d spans)@."
      (List.length (Kgm_telemetry.spans tele))
  end
