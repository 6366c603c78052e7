(* KGM_FAULTS=site:rate,seed=N turns the whole suite into a
   fault-injection run: every registered site fires with the configured
   seeded rate and the suite must still pass (CI runs it this way).
   Tests that configure the registry themselves reset it first. *)
let () = ignore (Kgm_resilience.Faults.configure_from_env ())

let () =
  Alcotest.run "kgmodel"
    [ ("common", Test_common.suite);
      ("intern", Test_intern.suite);
      ("telemetry", Test_telemetry.suite);
      ("algo", Test_algo.suite);
      ("relational", Test_relational.suite);
      ("graphdb", Test_graphdb.suite);
      ("vadalog", Test_vadalog.suite);
      ("incremental", Test_incremental.suite);
      ("parallel", Test_parallel.suite);
      ("planner", Test_planner.suite);
      ("resilience", Test_resilience.suite);
      ("server", Test_server.suite);
      ("observability", Test_observability.suite);
      ("metalog", Test_metalog.suite);
      ("kgmodel", Test_kgmodel.suite);
      ("ssst", Test_ssst.suite);
      ("materialize", Test_materialize.suite);
      ("finance", Test_finance.suite);
      ("conformance", Test_conformance.suite);
      ("schema-diff", Test_schema_diff.suite);
      ("sources", Test_sources.suite) ]
