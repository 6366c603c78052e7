(* Tests for the cost-aware chase planner stack: SCC recursion flags in
   the stratification, join-order planning (delta-first, selectivity
   order, readiness of non-atom literals), the append-order /
   seq-numbered Database surface the planner's determinism argument
   rests on, and — the load-bearing property — the full determinism
   matrix: planner on/off x jobs {1,2,4} x checkpoint/resume produce
   bit-for-bit identical facts, null numbering and per-rule counters
   (probes and times excepted across planner settings: the planner's
   whole point is to change those). *)

open Kgm_common
module V = Kgm_vadalog

let check = Alcotest.check

let run ?options ?checkpoint ?resume_from src =
  let p = V.Parser.parse_program src in
  V.Engine.run_program ?options ?checkpoint ?resume_from p

let opts ~planner ~jobs = { V.Engine.default_options with planner; jobs }

let fresh_dir =
  let ctr = ref 0 in
  fun name ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "kgm_planner_%s_%d_%d" name (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".snap" then
          Sys.remove (Filename.concat d f))
      (Sys.readdir d);
    d

(* ------------------------------------------------------------------ *)
(* Analysis: per-stratum recursion flags *)

let stratum_of (an : V.Analysis.t) pred =
  V.Analysis.SMap.find pred an.V.Analysis.stratum_of

let test_recursive_flags () =
  let p =
    V.Parser.parse_program
      {| a(1).
         b(X) :- a(X).
         c(X) :- b(X).
         c(X) :- c(X), b(X).
         d(X) :- e(X).
         e(X) :- d(X), b(X). |}
  in
  let an = V.Analysis.stratify p in
  let recursive pred = an.V.Analysis.recursive.(stratum_of an pred) in
  check Alcotest.bool "b: non-recursive" false (recursive "b");
  check Alcotest.bool "c: self-loop" true (recursive "c");
  (* mutual recursion: the d/e SCC has internal edges but no self-loop *)
  check Alcotest.int "d and e share a stratum" (stratum_of an "d")
    (stratum_of an "e");
  check Alcotest.bool "d/e: mutually recursive" true (recursive "d");
  check Alcotest.int "one flag per stratum"
    (List.length an.V.Analysis.strata)
    (Array.length an.V.Analysis.recursive)

(* ------------------------------------------------------------------ *)
(* Planner: join orders *)

let test_plan_guard_first () =
  (* the guard company(Z) is written first but binds nothing the delta
     provides; the plan must lead with the delta, follow with own
     (bound on Y), flush the condition as soon as W is bound, and probe
     the guard last, bound on Z *)
  let r =
    V.Parser.parse_rule
      "reach(X, Z) :- company(Z), reach(X, Y), own(Y, Z, W), W > 0.0."
  in
  let count = function
    | "company" -> 1000
    | "own" -> 1200
    | "reach" -> 5000
    | _ -> 0
  in
  let plan = V.Planner.plan_rule ~count ~delta_lit:1 r in
  check Alcotest.(list int) "order" [ 1; 2; 3; 0 ] plan.V.Planner.order;
  check Alcotest.bool "reordered" true plan.V.Planner.reordered;
  check Alcotest.bool "cost positive" true (plan.V.Planner.cost >= 1);
  (* deterministic: same inputs, same plan *)
  check Alcotest.bool "deterministic" true
    (plan = V.Planner.plan_rule ~count ~delta_lit:1 r)

let test_plan_written_rotation () =
  (* the unplanned order still leads with the delta (chunk-invariant
     probe accounting), then keeps the written order *)
  let r =
    V.Parser.parse_rule
      "reach(X, Z) :- company(Z), reach(X, Y), own(Y, Z, W), W > 0.0."
  in
  let plan = V.Planner.written ~delta_lit:1 r in
  check Alcotest.(list int) "rotated" [ 1; 0; 2; 3 ] plan.V.Planner.order;
  check Alcotest.bool "reordered" true plan.V.Planner.reordered;
  (* ... and is the identity when the delta is already first *)
  let tc = V.Parser.parse_rule "tc(X, Z) :- tc(X, Y), edge(Y, Z)." in
  let plan = V.Planner.written ~delta_lit:0 tc in
  check Alcotest.(list int) "identity" [ 0; 1 ] plan.V.Planner.order;
  check Alcotest.bool "not reordered" false plan.V.Planner.reordered

let test_plan_negation_readiness () =
  (* a negation must never run before its variables are bound, however
     selective the planner finds the atoms *)
  let r =
    V.Parser.parse_rule
      "open(X, Y) :- big(X, Y), not blocked(Y), tiny(Y)."
  in
  let count = function "big" -> 100_000 | "tiny" -> 1 | _ -> 0 in
  let plan = V.Planner.plan_rule ~count ~delta_lit:0 r in
  let pos l v = List.mapi (fun i x -> (x, i)) l |> List.assoc v in
  let order = plan.V.Planner.order in
  check Alcotest.bool "neg after its binder" true
    (pos order 1 > pos order 0);
  check Alcotest.int "all literals planned" 3 (List.length order)

(* ------------------------------------------------------------------ *)
(* Database: append order, seq numbers, copy *)

let test_facts_insertion_order () =
  let db = V.Database.create () in
  let f a = [| Value.Int a |] in
  check Alcotest.bool "first add" true (V.Database.add db "p" (f 3));
  check Alcotest.bool "second add" true (V.Database.add db "p" (f 1));
  check Alcotest.bool "duplicate rejected" false (V.Database.add db "p" (f 3));
  check Alcotest.bool "third add" true (V.Database.add db "p" (f 2));
  (* facts come back in first-insertion order, duplicates keep their
     original position *)
  check Alcotest.bool "append order" true
    (V.Database.facts db "p" = [ f 3; f 1; f 2 ])

let test_iter_matches_seq_and_examined () =
  let db = V.Database.create () in
  let f a b = [| Value.Int a; Value.Int b |] in
  List.iter
    (fun (a, b) -> ignore (V.Database.add db "e" (f a b)))
    [ (1, 10); (2, 20); (1, 11); (3, 30); (1, 12) ];
  V.Database.prepare_index db "e" [ 0 ];
  V.Database.freeze db;
  let seqs = ref [] in
  let examined =
    V.Database.iter_matches db "e" [ 0 ] [ Value.Int 1 ] (fun seq _ ->
        seqs := seq :: !seqs)
  in
  (* indexed probe: examined = the group, seqs ascending insertion *)
  check Alcotest.(list int) "ascending seqs" [ 0; 2; 4 ] (List.rev !seqs);
  check Alcotest.int "indexed probe examines the group" 3 examined;
  (* unindexed pattern on a frozen store: the first probe builds the
     index and examines only its group *)
  let matches = ref 0 in
  let examined =
    V.Database.iter_matches db "e" [ 1 ] [ Value.Int 30 ] (fun _ _ ->
        incr matches)
  in
  check Alcotest.int "frozen probe matches" 1 !matches;
  check Alcotest.int "first frozen probe examines its group" 1 examined;
  check
    Alcotest.(list (list int))
    "the frozen store gained the index" [ [ 0 ]; [ 1 ] ]
    (V.Database.indexed_patterns db "e");
  (* a live store whose callback inserts a fact under the probed key:
     the probe visits, and counts as examined, exactly the group as of
     the call — over a full scan, an existing index and one built by the
     probe itself *)
  List.iter
    (fun (positions, key, prepared, group) ->
      let db = V.Database.create () in
      List.iter
        (fun (a, b) -> ignore (V.Database.add db "e" (f a b)))
        [ (1, 10); (2, 20); (1, 11) ];
      if prepared then V.Database.prepare_index db "e" positions;
      let visited = ref 0 and next = ref 100 in
      let examined =
        V.Database.iter_matches db "e" positions key (fun _ _ ->
            incr visited;
            incr next;
            ignore (V.Database.add db "e" (f 1 !next)))
      in
      let what =
        Printf.sprintf "live probe on [%s]%s"
          (String.concat ";" (List.map string_of_int positions))
          (if prepared then " (indexed)" else "")
      in
      check Alcotest.int (what ^ ": visited") group !visited;
      check Alcotest.int (what ^ ": examined") group examined)
    [ ([], [], false, 3); ([ 0 ], [ Value.Int 1 ], true, 2);
      ([ 0 ], [ Value.Int 1 ], false, 2) ]

let test_copy_preserves_frozen_and_indexes () =
  let db = V.Database.create () in
  let f a = [| Value.Int a; Value.Int (a * 10) |] in
  List.iter (fun a -> ignore (V.Database.add db "e" (f a))) [ 1; 2; 3 ];
  V.Database.prepare_index db "e" [ 1 ];
  V.Database.freeze db;
  let c = V.Database.copy db in
  check Alcotest.bool "copy is frozen" true (V.Database.is_frozen c);
  check Alcotest.bool "copy rejects writes" true
    (match V.Database.add c "e" (f 9) with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check
    Alcotest.(list (list int))
    "index patterns carried over" [ [ 1 ] ]
    (V.Database.indexed_patterns c "e");
  check Alcotest.bool "facts and order intact" true
    (V.Database.facts c "e" = V.Database.facts db "e");
  (* the carried index answers probes without a linear scan *)
  let examined =
    V.Database.iter_matches c "e" [ 1 ] [ Value.Int 20 ] (fun _ _ -> ())
  in
  check Alcotest.int "indexed probe on the copy" 1 examined

(* ------------------------------------------------------------------ *)
(* Stratum skipping *)

let test_nonrecursive_stratum_skips_round () =
  let src = "a(1). a(2). b(X) :- a(X). c(X) :- b(X)." in
  let db_on, s_on = run ~options:(opts ~planner:true ~jobs:1) src in
  let db_off, s_off = run ~options:(opts ~planner:false ~jobs:1) src in
  check Alcotest.bool "same facts" true
    (Test_parallel.canon db_on = Test_parallel.canon db_off);
  (* two rule strata: the planner completes each in its round 0, the
     unplanned engine burns an empty delta round per stratum *)
  check Alcotest.int "rounds with planner" 2 s_on.V.Engine.rounds;
  check Alcotest.int "rounds without" 4 s_off.V.Engine.rounds

(* ------------------------------------------------------------------ *)
(* Plan report *)

let test_plan_report () =
  let p =
    V.Parser.parse_program
      {| company(1). own(1, 2, 0.6).
         reach(X, Y) :- company(X), own(X, Y, W), company(Y).
         reach(X, Z) :- company(Z), reach(X, Y), own(Y, Z, W).
         link(X, Y) :- reach(X, Y). |}
  in
  let db = V.Database.create () in
  List.iter
    (fun (pred, args) -> ignore (V.Database.add db pred (Array.of_list args)))
    p.V.Rule.facts;
  let report = Format.asprintf "%a" (fun ppf () ->
      V.Engine.pp_plan_report ppf p db) ()
  in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length report && (String.sub report i n = sub || go (i + 1))
    in
    go 0
  in
  check Alcotest.bool "names the recursive stratum" true
    (contains "(recursive)");
  check Alcotest.bool "marks the delta literal" true (contains "Δreach@1");
  check Alcotest.bool "single-round note" true (contains "single round")

(* ------------------------------------------------------------------ *)
(* The determinism matrix *)

(* Guard-first recursive reachability with an existential head: three
   branching chains plus a cycle, so the fixpoint takes several rounds,
   the delta drives a literal at written position 1, and labeled-null
   numbering is exercised. Historically the engine was only
   jobs-deterministic for delta-FIRST rules (the chunk-major merge
   order happened to coincide with the sequential one); this shape is
   the regression test for the general seq-vector merge. *)
let matrix_src =
  let buf = Buffer.create 2048 in
  for c = 0 to 2 do
    for i = 0 to 4 do
      let v = (c * 5) + i in
      Buffer.add_string buf (Printf.sprintf "company(%d). " v);
      if i < 4 then
        Buffer.add_string buf (Printf.sprintf "own(%d, %d, 0.6). " v (v + 1))
    done
  done;
  (* cross links and a cycle *)
  Buffer.add_string buf "own(4, 5, 0.3). own(9, 10, 0.3). own(14, 0, 0.3). ";
  Buffer.add_string buf
    {| reach(X, Y) :- company(X), own(X, Y, W), company(Y).
       reach(X, Z) :- company(Z), reach(X, Y), own(Y, Z, W).
       officer(X, P) :- reach(X, Y), company(Y). |};
  Buffer.contents buf

let probes (s : V.Engine.stats) =
  List.fold_left
    (fun a (r : V.Engine.rule_stats) -> a + r.V.Engine.rs_probes)
    0 s.V.Engine.per_rule

(* counters comparable across planner settings: everything except
   probes (and times), which planning changes by design *)
let counters_sans_probes (s : V.Engine.stats) =
  List.map
    (fun (l, (f, m, _, n, h, mi)) -> (l, (f, m, n, h, mi)))
    (Test_parallel.rule_counters s)

let test_matrix_plain () =
  let ref_db, ref_stats = run ~options:(opts ~planner:true ~jobs:1) matrix_src in
  check Alcotest.bool "workload derives nulls" true
    (ref_stats.V.Engine.nulls_invented > 0);
  let per_flag = Hashtbl.create 2 in
  List.iter
    (fun planner ->
      List.iter
        (fun jobs ->
          let tag fmt =
            Printf.sprintf "planner=%b jobs=%d %s" planner jobs fmt
          in
          let db, stats = run ~options:(opts ~planner ~jobs) matrix_src in
          check Alcotest.bool (tag "facts + null numbering") true
            (Test_parallel.canon ref_db = Test_parallel.canon db);
          check Alcotest.bool (tag "counters sans probes") true
            (counters_sans_probes ref_stats = counters_sans_probes stats);
          (* within one planner setting everything is identical,
             probes and rounds included *)
          match Hashtbl.find_opt per_flag planner with
          | None ->
              Hashtbl.add per_flag planner
                (Test_parallel.rule_counters stats, stats.V.Engine.rounds,
                 stats.V.Engine.delta_sizes, probes stats)
          | Some (ctrs, rounds, deltas, _) ->
              check Alcotest.bool (tag "full counters") true
                (ctrs = Test_parallel.rule_counters stats);
              check Alcotest.int (tag "rounds") rounds stats.V.Engine.rounds;
              check
                Alcotest.(list int)
                (tag "delta sizes") deltas stats.V.Engine.delta_sizes)
        [ 1; 2; 4 ])
    [ true; false ];
  let flag_probes planner =
    match Hashtbl.find_opt per_flag planner with
    | Some (_, _, _, p) -> p
    | None -> assert false
  in
  check Alcotest.bool "planner does not probe more" true
    (flag_probes true <= flag_probes false)

let test_matrix_resume () =
  let ref_db, ref_stats = run ~options:(opts ~planner:true ~jobs:1) matrix_src in
  List.iter
    (fun planner ->
      let dir = fresh_dir (Printf.sprintf "mx%b" planner) in
      let ck = V.Engine.checkpoint ~every:1 dir in
      ignore (run ~options:(opts ~planner ~jobs:1) ~checkpoint:ck matrix_src);
      let snaps = Kgm_resilience.Snapshot.list ~dir ~kind:"chase-chase" in
      check Alcotest.bool "several snapshots" true (List.length snaps >= 2);
      List.iter
        (fun (seq, path) ->
          List.iter
            (fun jobs ->
              let tag fmt =
                Printf.sprintf "planner=%b resume@%d jobs=%d %s" planner seq
                  jobs fmt
              in
              let db, stats =
                run ~options:(opts ~planner ~jobs) ~resume_from:path matrix_src
              in
              check Alcotest.bool (tag "facts + null numbering") true
                (Test_parallel.canon ref_db = Test_parallel.canon db);
              check Alcotest.bool (tag "counters sans probes") true
                (counters_sans_probes ref_stats = counters_sans_probes stats))
            [ 1; 2; 4 ])
        snaps;
      (* cross-setting resume: a snapshot written under one planner
         setting resumed under the other still lands on the same facts
         (the fingerprint covers the program, not the options) *)
      match V.Engine.latest_checkpoint dir with
      | Some path ->
          let db, _ =
            run
              ~options:(opts ~planner:(not planner) ~jobs:2)
              ~resume_from:path matrix_src
          in
          check Alcotest.bool
            (Printf.sprintf "cross resume from planner=%b" planner)
            true
            (Test_parallel.canon ref_db = Test_parallel.canon db)
      | None -> Alcotest.fail "no snapshot written")
    [ true; false ]

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "analysis: stratum recursion flags." `Quick
      test_recursive_flags;
    Alcotest.test_case "plan: guard-first body is delta-led." `Quick
      test_plan_guard_first;
    Alcotest.test_case "plan: written order rotates the delta." `Quick
      test_plan_written_rotation;
    Alcotest.test_case "plan: negation waits for its binders." `Quick
      test_plan_negation_readiness;
    Alcotest.test_case "db: facts keep insertion order." `Quick
      test_facts_insertion_order;
    Alcotest.test_case "db: iter_matches seqs and examined counts." `Quick
      test_iter_matches_seq_and_examined;
    Alcotest.test_case "db: copy preserves frozen + indexes." `Quick
      test_copy_preserves_frozen_and_indexes;
    Alcotest.test_case "non-recursive strata skip their delta round." `Quick
      test_nonrecursive_stratum_skips_round;
    Alcotest.test_case "plan report: strata and join orders." `Quick
      test_plan_report;
    Alcotest.test_case "determinism matrix: planner x jobs." `Quick
      test_matrix_plain;
    Alcotest.test_case "determinism matrix: checkpoint/resume." `Quick
      test_matrix_resume ]
