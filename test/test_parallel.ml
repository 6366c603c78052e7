(* Tests for the parallel semi-naive evaluation stack: the Kgm_pool
   domain pool, the Database freeze protocol, the value-identity
   bugfixes that parallel dedup depends on (rec compare, Value.Hashed
   keyed tables, the delta arity guard), and — the load-bearing
   property — bit-for-bit determinism of the engine across jobs. *)

open Kgm_common
module V = Kgm_vadalog

let check = Alcotest.check

let run ?options src =
  let p = V.Parser.parse_program src in
  V.Engine.run_program ?options p

let options_jobs jobs = { V.Engine.default_options with V.Engine.jobs }

(* ------------------------------------------------------------------ *)
(* The pool *)

let with_pool size f =
  let pool = Kgm_pool.create size in
  Fun.protect ~finally:(fun () -> Kgm_pool.shutdown pool) (fun () -> f pool)

let run_batch pool thunks =
  Kgm_pool.run_weighted pool ~weights:(Array.map (fun _ -> 0) thunks) thunks

let test_pool_exception () =
  with_pool 3 @@ fun pool ->
  (match
     run_batch pool
       [| (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) |]
   with
  | exception Kgm_error.Error e ->
      check Alcotest.bool "reason stage" true (e.Kgm_error.stage = Kgm_error.Reason);
      check Alcotest.string "message" "worker exception: Failure(\"boom\")"
        e.Kgm_error.message;
      check Alcotest.(option string) "chunk context" (Some "1/3")
        (List.assoc_opt "chunk" e.Kgm_error.context);
      check Alcotest.bool "worker context" true
        (List.mem_assoc "worker" e.Kgm_error.context)
  | _ -> Alcotest.fail "expected the worker exception to propagate");
  (* the pool survives a failed batch *)
  check Alcotest.(list int) "reusable" [ 2; 4 ]
    (run_batch pool [| (fun () -> 2); (fun () -> 4) |]);
  (* deterministic propagation: several failures, the lowest submission
     index wins regardless of completion schedule *)
  match
    run_batch pool
      [| (fun () -> failwith "a"); (fun () -> failwith "b"); (fun () -> 3) |]
  with
  | exception Kgm_error.Error e ->
      check Alcotest.(option string) "lowest index wins" (Some "0/3")
        (List.assoc_opt "chunk" e.Kgm_error.context)
  | _ -> Alcotest.fail "expected the first worker error"

let test_pool_inline () =
  (* size 1 spawns no domains: everything runs inline on the caller *)
  with_pool 1 @@ fun pool ->
  check Alcotest.int "size" 1 (Kgm_pool.size pool);
  let caller = Domain.self () in
  let ran_on = run_batch pool (Array.init 5 (fun _ () -> Domain.self ())) in
  check Alcotest.bool "inline" true
    (List.for_all (fun d -> d = caller) ran_on);
  check Alcotest.int "no domain started" 0 (Kgm_pool.spawned pool)

let test_pool_starts_with_work () =
  let pool = Kgm_pool.create 4 in
  for i = 1 to 3 do
    check Alcotest.(list int) "single task" [ i ]
      (run_batch pool [| (fun () -> i) |])
  done;
  check Alcotest.(list int) "empty batch" [] (run_batch pool [||]);
  check Alcotest.int "single-task batches start no domain" 0
    (Kgm_pool.spawned pool);
  (* heaviest first, results still in submission order *)
  check Alcotest.(list int) "multi-task batch" [ 0; 1; 2; 3; 4; 5 ]
    (Kgm_pool.run_weighted pool ~weights:[| 1; 5; 2; 5; 0; 3 |]
       (Array.init 6 (fun i () -> i)));
  check Alcotest.int "the first multi-task batch starts size - 1" 3
    (Kgm_pool.spawned pool);
  ignore (run_batch pool (Array.init 8 (fun i () -> i)));
  check Alcotest.int "and no more after" 3 (Kgm_pool.spawned pool);
  Kgm_pool.shutdown pool;
  check Alcotest.int "shutdown joins them" 0 (Kgm_pool.spawned pool);
  check Alcotest.(list int) "after shutdown: inline" [ 1; 2 ]
    (run_batch pool [| (fun () -> 1); (fun () -> 2) |]);
  check Alcotest.int "and starts none" 0 (Kgm_pool.spawned pool)

(* ------------------------------------------------------------------ *)
(* Value identity (satellite fixes the parallel dedup depends on) *)

let oid s =
  match Oid.of_string s with
  | Some o -> o
  | None -> Alcotest.failf "cannot parse oid %s" s

let test_compare_nested_oid_hint () =
  (* same Fresh counter, different cosmetic hint: equal — also inside a
     List, which the non-[rec] compare delegated to Stdlib.compare *)
  let a = Value.List [ Value.Id (oid "#12:a") ] in
  let b = Value.List [ Value.Id (oid "#12:b") ] in
  check Alcotest.int "compare" 0 (Value.compare a b);
  check Alcotest.bool "equal" true (Value.equal a b);
  check Alcotest.int "hash" (Value.hash a) (Value.hash b)

let test_compare_nested_nan () =
  let a = Value.List [ Value.Float Float.nan ] in
  let b = Value.List [ Value.Float Float.nan ] in
  check Alcotest.int "nan = nan inside lists" 0 (Value.compare a b);
  check Alcotest.bool "Hashed.equal" true (Value.Hashed.equal a b)

(* ------------------------------------------------------------------ *)
(* Database: Value-keyed dedup, freezing, mixed-arity indexes *)

let test_db_nan_dedup () =
  let db = V.Database.create () in
  check Alcotest.bool "first insert" true
    (V.Database.add db "p" [| Value.Float Float.nan |]);
  check Alcotest.bool "duplicate rejected" false
    (V.Database.add db "p" [| Value.Float Float.nan |]);
  check Alcotest.int "one fact" 1 (V.Database.count db "p")

let test_nan_fact_reaches_fixpoint () =
  (* with structural-equality dedup a NaN fact is re-derived forever:
     the mutual recursion below only terminates if nan = nan in the
     store *)
  let db = V.Database.create () in
  ignore (V.Database.add db "q" [| Value.Float Float.nan |]);
  let program = V.Parser.parse_program "p(X) :- q(X). q(X) :- p(X)." in
  let stats = V.Engine.run program db in
  check Alcotest.bool "terminates quickly" true
    (stats.V.Engine.rounds <= 4);
  check Alcotest.int "p" 1 (V.Database.count db "p");
  check Alcotest.int "q" 1 (V.Database.count db "q")

let test_db_freeze () =
  let db = V.Database.create () in
  ignore (V.Database.add db "p" [| Value.Int 1; Value.Int 2 |]);
  ignore (V.Database.add db "p" [| Value.Int 3; Value.Int 4 |]);
  V.Database.freeze db;
  (match V.Database.add db "p" [| Value.Int 5; Value.Int 6 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "frozen database accepted a write");
  (* lookup without a prepared index: linear scan, no mutation *)
  check Alcotest.int "frozen lookup" 1
    (List.length (V.Database.lookup db "p" [ 1 ] [ Value.Int 4 ]));
  V.Database.thaw db;
  check Alcotest.bool "thawed write" true
    (V.Database.add db "p" [| Value.Int 5; Value.Int 6 |])

let test_db_mixed_arity_index () =
  let db = V.Database.create () in
  ignore (V.Database.add db "p" [| Value.Int 1 |]);
  ignore (V.Database.add db "p" [| Value.Int 1; Value.Int 2 |]);
  (* building an index on position 1 must skip the arity-1 fact *)
  V.Database.prepare_index db "p" [ 1 ];
  check Alcotest.int "index skips short facts" 1
    (List.length (V.Database.lookup db "p" [ 1 ] [ Value.Int 2 ]))

let test_mixed_arity_delta_no_crash () =
  (* p holds facts of two arities; the q rule binds position 1 of p, so
     the delta filter used to index arity-1 facts out of bounds before
     the arity guard was moved first *)
  let src =
    {| n(1). n(2).
       p(X) :- n(X).
       p(X, 1) :- n(X).
       q(X) :- p(X, 1).
       p(X) :- q(X). |}
  in
  List.iter
    (fun jobs ->
      let db, _ = run ~options:(options_jobs jobs) src in
      check Alcotest.int
        (Printf.sprintf "q facts (jobs=%d)" jobs)
        2
        (V.Database.count db "q"))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Jobs-determinism: same facts, same null numbering, same counters *)

(* Canonical form of a database: every predicate's facts in insertion
   order, labeled nulls renumbered by first appearance. Two runs agree
   bit-for-bit iff their canonical forms are equal (the absolute null
   ids differ because the null counter is global to the process). *)
let canon db =
  let map = Hashtbl.create 16 in
  let next = ref 0 in
  let rec cv = function
    | Value.Null n -> (
        match Hashtbl.find_opt map n with
        | Some m -> Value.Null m
        | None ->
            incr next;
            Hashtbl.add map n !next;
            Value.Null !next)
    | Value.List l -> Value.List (List.map cv l)
    | v -> v
  in
  List.map
    (fun pred ->
      ( pred,
        List.map
          (fun f -> List.map cv (Array.to_list f))
          (V.Database.facts db pred) ))
    (V.Database.predicates db)

let rule_counters (stats : V.Engine.stats) =
  List.map
    (fun (r : V.Engine.rule_stats) ->
      ( r.V.Engine.rs_label,
        ( r.V.Engine.rs_firings,
          r.V.Engine.rs_matches,
          r.V.Engine.rs_probes,
          r.V.Engine.rs_nulls,
          r.V.Engine.rs_chase_hits,
          r.V.Engine.rs_chase_misses ) ))
    stats.V.Engine.per_rule

let check_jobs_invariant name src =
  let db1, s1 = run ~options:(options_jobs 1) src in
  let db4, s4 = run ~options:(options_jobs 4) src in
  check Alcotest.bool (name ^ ": facts and null numbering") true
    (canon db1 = canon db4);
  check Alcotest.int (name ^ ": rounds") s1.V.Engine.rounds s4.V.Engine.rounds;
  check
    Alcotest.(list int)
    (name ^ ": delta sizes") s1.V.Engine.delta_sizes s4.V.Engine.delta_sizes;
  check Alcotest.int (name ^ ": new facts") s1.V.Engine.new_facts
    s4.V.Engine.new_facts;
  check Alcotest.bool (name ^ ": per-rule counters") true
    (rule_counters s1 = rule_counters s4)

let warded_src =
  {| emp(e0). emp(e1). emp(e2).
     mgr(X, M) :- emp(X).
     emp(M) :- mgr(X, M). |}

let tc_src =
  let buf = Buffer.create 1024 in
  for i = 1 to 39 do
    Buffer.add_string buf (Printf.sprintf "edge(%d, %d). " i (i + 1))
  done;
  Buffer.add_string buf "edge(40, 1). ";
  Buffer.add_string buf
    "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";
  Buffer.contents buf

let negagg_src =
  {| e(1, 2, 0.6). e(2, 3, 0.3). e(1, 3, 0.4). e(3, 4, 0.9).
     r(X, Y) :- e(X, Y, W).
     r(X, Z) :- r(X, Y), e(Y, Z, W).
     blocked(4).
     open(X, Y) :- r(X, Y), not blocked(Y).
     deg(X, S) :- e(X, Y, W), S = dsum(W, <Y>). |}

let test_determinism_warded () = check_jobs_invariant "warded" warded_src

let test_determinism_tc () =
  check_jobs_invariant "transitive closure" tc_src

let test_determinism_negation_aggregation () =
  check_jobs_invariant "negation + aggregation" negagg_src

let test_determinism_control () =
  (* Example 4.2 (recursion through a monotonic aggregate) on a
     synthetic ownership network *)
  let o = Kgm_finance.Generator.generate ~n:150 () in
  let p1 = Kgm_finance.Control.via_vadalog ~options:(options_jobs 1) o in
  let p4 = Kgm_finance.Control.via_vadalog ~options:(options_jobs 4) o in
  check Alcotest.bool "control pairs" true (p1 = p4);
  check Alcotest.bool "nonempty" true (p1 <> [])

(* ------------------------------------------------------------------ *)
(* Cross-version pins. The matrices above compare configurations of one
   build with each other; these digests compare builds. Each pins (a)
   the canonical facts — per-predicate insertion order, nulls renamed by
   first appearance — and (b) rounds, delta sizes, new facts and the
   per-rule counters, for the four determinism programs with the
   planner on and off. Neither depends on [jobs], so the suite's
   KGM_JOBS setting runs them unchanged. An engine change that moves a
   digest changes observable chase output: re-pin only deliberately,
   with the reason stated. *)

(* the Example 4.2 chase of [test_determinism_control], with its stats *)
let run_control options =
  let db =
    Kgm_finance.Control.vadalog_db (Kgm_finance.Generator.generate ~n:150 ())
  in
  let program = V.Parser.parse_program Kgm_finance.Control.vadalog_program in
  let stats = V.Engine.run ~options program db in
  (db, stats)

(* [canon] as text, one fact a line *)
let canon_text db =
  String.concat ""
    (List.concat_map
       (fun (pred, fs) ->
         List.map
           (fun f ->
             Printf.sprintf "%s(%s)\n" pred
               (String.concat ", " (List.map Value.to_string f)))
           fs)
       (canon db))

let pin_texts (db, (stats : V.Engine.stats)) =
  let counters =
    List.map
      (fun (label, (fi, ma, pr, nu, hi, mi)) ->
        Printf.sprintf "%s %d %d %d %d %d %d\n" label fi ma pr nu hi mi)
      (rule_counters stats)
  in
  ( canon_text db,
    Printf.sprintf "rounds %d\ndeltas %s\nnew %d\n%s" stats.V.Engine.rounds
      (String.concat " " (List.map string_of_int stats.V.Engine.delta_sizes))
      stats.V.Engine.new_facts (String.concat "" counters) )

(* (program, planner, facts digest, stats digest), computed at the
   commit that introduced the pins. negagg's facts were re-pinned when
   stratified aggregates began firing their groups in first-seen order
   (its [dsum] now writes deg for 1, 2, 3 in that order, not 3, 1, 2) *)
let pins =
  [ ("warded", true,
     "f70df88e646daedea45ecc30344b7ef9",
     "d77cc2aad9e9dcd71bf4a255b497474c");
    ("warded", false,
     "f70df88e646daedea45ecc30344b7ef9",
     "d77cc2aad9e9dcd71bf4a255b497474c");
    ("tc", true,
     "e5c9f734b9075cd4bfed934a4654a0cd",
     "e01e306ce672cceee2475709b114314c");
    ("tc", false,
     "e5c9f734b9075cd4bfed934a4654a0cd",
     "e01e306ce672cceee2475709b114314c");
    ("negagg", true,
     "03ba303487b7eba8832c3507589f772e",
     "07d5ece3354b59562cac17308c776d94");
    ("negagg", false,
     "03ba303487b7eba8832c3507589f772e",
     "1ccd7ba8cd55d57107301e26feb8f1e9");
    ("control", true,
     "e9a7b0de514cbb41625dcb2964df57ef",
     "8dddb3ba4168d51189062ec4a3add8e5");
    ("control", false,
     "e9a7b0de514cbb41625dcb2964df57ef",
     "8dddb3ba4168d51189062ec4a3add8e5") ]

let test_pinned_digests () =
  List.iter
    (fun (name, planner, want_facts, want_stats) ->
      let options = { V.Engine.default_options with V.Engine.planner } in
      let result =
        match name with
        | "warded" -> run ~options warded_src
        | "tc" -> run ~options tc_src
        | "negagg" -> run ~options negagg_src
        | _ -> run_control options
      in
      let facts, stats = pin_texts result in
      let label = Printf.sprintf "%s planner=%b" name planner in
      let pin what want text =
        let got = Digest.to_hex (Digest.string text) in
        if got <> want then begin
          Printf.printf "--- %s %s: md5 %s, canonical text:\n%s---\n" label
            what got text;
          Alcotest.failf "%s: %s digest %s, pinned %s" label what got want
        end
      in
      pin "facts" want_facts facts;
      pin "stats" want_stats stats)
    pins

(* The chase's pool starts its domains at the first round with more
   than one work item. Example 4.2's recursive rule aggregates, so it
   never reaches the pool and no domain starts even at jobs 4; the
   transitive closure's delta rounds fan out and start jobs - 1. *)
let test_engine_spawns_with_work () =
  let control_src =
    "company(a). company(b). company(c). company(d). own(a, b, 0.6). \
     own(b, c, 0.3). own(a, c, 0.3). own(c, d, 0.9). "
    ^ Kgm_finance.Control.vadalog_program
  in
  let spawned jobs src =
    let telemetry = Kgm_telemetry.create () in
    let db, _ =
      V.Engine.run_program ~options:(options_jobs jobs) ~telemetry
        (V.Parser.parse_program src)
    in
    ( List.assoc_opt "engine.pool.spawned" (Kgm_telemetry.counters telemetry),
      canon_text db )
  in
  List.iter
    (fun (name, src, jobs, want) ->
      let n1, facts1 = spawned 1 src in
      let n, facts = spawned jobs src in
      check Alcotest.(option int) (name ^ ": jobs 1 starts none") (Some 0) n1;
      check Alcotest.(option int) (name ^ ": domains started") (Some want) n;
      check Alcotest.string (name ^ ": facts as at jobs 1") facts1 facts)
    [ ("aggregate-only recursion", control_src, 4, 0);
      ("transitive closure", tc_src, 2, 1) ];
  check Alcotest.bool "control through the aggregate" true
    (List.mem "controls(\"a\", \"c\")"
       (String.split_on_char '\n' (snd (spawned 1 control_src))))

(* ------------------------------------------------------------------ *)
(* Service pools: the streaming face of the pool core — items from many
   producers, dedicated consumer domains, shutdown returns the
   unprocessed remainder *)

let test_service_pool () =
  let processed = Atomic.make 0 in
  let svc =
    Kgm_pool.Service.create ~domains:2 (fun n ->
        Atomic.fetch_and_add processed n |> ignore)
  in
  for i = 1 to 100 do
    Alcotest.(check bool) "submit admitted" true (Kgm_pool.Service.submit svc i)
  done;
  let rec wait n =
    if Kgm_pool.Service.pending svc > 0 && n > 0 then begin
      Thread.delay 0.01;
      wait (n - 1)
    end
  in
  wait 500;
  let leftover = Kgm_pool.Service.shutdown svc in
  check Alcotest.int "everything processed or returned"
    (100 * 101 / 2)
    (Atomic.get processed + List.fold_left ( + ) 0 leftover);
  check Alcotest.bool "post-shutdown submit refused" false
    (Kgm_pool.Service.submit svc 7)

let test_service_pool_errors () =
  let errs = Atomic.make 0 in
  let ok = Atomic.make 0 in
  let svc =
    Kgm_pool.Service.create ~domains:1
      ~on_error:(fun _ -> Atomic.incr errs)
      (fun n -> if n < 0 then failwith "bad item" else Atomic.incr ok)
  in
  List.iter
    (fun n -> ignore (Kgm_pool.Service.submit svc n))
    [ 1; -1; 2; -2; 3 ];
  let rec wait n =
    if Atomic.get ok + Atomic.get errs < 5 && n > 0 then begin
      Thread.delay 0.01;
      wait (n - 1)
    end
  in
  wait 500;
  ignore (Kgm_pool.Service.shutdown svc);
  check Alcotest.int "handler exceptions routed to on_error" 2
    (Atomic.get errs);
  check Alcotest.int "worker survived them" 3 (Atomic.get ok)

(* ------------------------------------------------------------------ *)
(* Index-key hashing: Hashtbl.hash caps at ~10 meaningful nodes, so
   wide keys differing only past position 10 used to collide into one
   bucket; the seeded fold must spread them *)

let test_key_hash_distribution () =
  let module KT = V.Database.KeyTbl in
  let wide i =
    (* 12 identical positions, then the distinguishing one *)
    List.init 12 (fun p -> Value.Int p) @ [ Value.Int i ]
  in
  let n = 1024 in
  let tbl = KT.create n in
  for i = 0 to n - 1 do
    KT.replace tbl (wide i) i
  done;
  check Alcotest.int "all keys distinct" n (KT.length tbl);
  for i = 0 to n - 1 do
    check Alcotest.(option int) "retrievable" (Some i)
      (KT.find_opt tbl (wide i))
  done;
  (* distribution, not just correctness: bucket the raw hashes mod 64
     and require no bucket to swallow a constant fraction — with the
     old Hashtbl.hash every wide key landed in one bucket *)
  let buckets = Array.make 64 0 in
  let hash k =
    List.fold_left
      (fun h v -> (h * 0x01000193) lxor Value.hash v)
      0x811c9dc5 k
    land max_int
  in
  for i = 0 to n - 1 do
    let b = hash (wide i) mod 64 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let worst = Array.fold_left max 0 buckets in
  check Alcotest.bool
    (Printf.sprintf "worst bucket %d of %d keys is not degenerate" worst n)
    true
    (worst < n / 8)

(* ------------------------------------------------------------------ *)
(* The frozen-store side-car index cache: first probe builds once,
   later probes answer through it with index-sized examined counts *)

let test_index_cache () =
  let db = V.Database.create () in
  for i = 0 to 99 do
    ignore
      (V.Database.add db "e"
         [| Value.Int (i mod 10); Value.Int i |])
  done;
  V.Database.freeze db;
  let cache = V.Database.cache_create () in
  let probe () =
    let got = ref [] in
    let examined =
      V.Database.iter_matches_cached cache db "e" [ 0 ] [ Value.Int 3 ]
        (fun _seq fact -> got := fact :: !got)
    in
    (examined, List.rev !got)
  in
  (* uncached, the frozen store would examine all 100 facts per probe;
     through the cache only the first probe pays the build *)
  let examined1, got1 = probe () in
  let examined2, got2 = probe () in
  check Alcotest.int "10 facts match" 10 (List.length got1);
  check Alcotest.bool "same answer twice" true (got1 = got2);
  check Alcotest.int "cached probe examines the postings only" 10 examined2;
  check Alcotest.int "so did the building probe" 10 examined1;
  check Alcotest.bool "pattern recorded" true
    (List.mem ("e", [ 0 ]) (V.Database.cached_patterns cache));
  (* matches what the store's own index would answer *)
  let direct = V.Database.lookup db "e" [ 0 ] [ Value.Int 3 ] in
  check Alcotest.bool "agrees with lookup" true (got1 = direct);
  V.Database.thaw db

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "pool exception propagation." `Quick test_pool_exception;
    Alcotest.test_case "pool starts domains with work." `Quick
      test_pool_starts_with_work;
    Alcotest.test_case "pool size 1 runs inline." `Quick test_pool_inline;
    Alcotest.test_case "compare ignores oid hints in lists." `Quick
      test_compare_nested_oid_hint;
    Alcotest.test_case "compare is total on nested NaN." `Quick
      test_compare_nested_nan;
    Alcotest.test_case "NaN fact dedup." `Quick test_db_nan_dedup;
    Alcotest.test_case "NaN fact reaches fixpoint." `Quick
      test_nan_fact_reaches_fixpoint;
    Alcotest.test_case "freeze rejects writes, lookup scans." `Quick
      test_db_freeze;
    Alcotest.test_case "mixed-arity index build." `Quick
      test_db_mixed_arity_index;
    Alcotest.test_case "mixed-arity delta facts." `Quick
      test_mixed_arity_delta_no_crash;
    Alcotest.test_case "jobs-determinism: warded chase." `Quick
      test_determinism_warded;
    Alcotest.test_case "jobs-determinism: transitive closure." `Quick
      test_determinism_tc;
    Alcotest.test_case "jobs-determinism: negation + aggregation." `Quick
      test_determinism_negation_aggregation;
    Alcotest.test_case "jobs-determinism: company control." `Quick
      test_determinism_control;
    Alcotest.test_case "chase starts pool domains only with work." `Quick
      test_engine_spawns_with_work;
    Alcotest.test_case "pinned chase digests across versions." `Quick
      test_pinned_digests;
    Alcotest.test_case "service pool: stream, drain, shutdown." `Quick
      test_service_pool;
    Alcotest.test_case "service pool: handler errors survive." `Quick
      test_service_pool_errors;
    Alcotest.test_case "index key hash: wide keys spread." `Quick
      test_key_hash_distribution;
    Alcotest.test_case "frozen-store index cache." `Quick test_index_cache ]
