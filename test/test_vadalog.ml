(* Tests for the Vadalog engine: parsing, semantics of the chase,
   negation, aggregation, existentials, wardedness analysis, and the
   semi-naive / restricted-chase ablations. *)

open Kgm_common
module V = Kgm_vadalog

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let run ?options src =
  let p = V.Parser.parse_program src in
  V.Engine.run_program ?options p

let facts db pred =
  List.map Array.to_list (V.Engine.query db pred) |> List.sort compare

let ints xs = List.map (List.map Value.int) xs

(* ------------------------------------------------------------------ *)
(* Lexer / parser *)

let test_lexer_tokens () =
  let toks = V.Lexer.tokenize "p(X) :- q(X), X >= 1.5. % comment\n@out(\"a\")." in
  check Alcotest.bool "nonempty" true (List.length toks > 8);
  check Alcotest.bool "comment stripped" true
    (List.for_all
       (fun t -> match t.V.Lexer.tok with V.Lexer.IDENT "comment" -> false | _ -> true)
       toks)

let test_lexer_string_escape () =
  match V.Lexer.tokenize {|"a\"b\n"|} with
  | [ { V.Lexer.tok = V.Lexer.STRING s; _ }; _ ] ->
      check Alcotest.string "escapes" "a\"b\n" s
  | _ -> Alcotest.fail "bad tokens"

let test_lexer_unterminated () =
  match Kgm_error.guard (fun () -> V.Lexer.tokenize "\"abc") with
  | Error { Kgm_error.stage = Kgm_error.Parse; _ } -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_parser_facts_and_rules () =
  let p = V.Parser.parse_program
      {| edge(a, b). edge(b, c).
         tc(X, Y) :- edge(X, Y).
         tc(X, Z) :- tc(X, Y), edge(Y, Z). |}
  in
  check Alcotest.int "facts" 2 (List.length p.V.Rule.facts);
  check Alcotest.int "rules" 2 (List.length p.V.Rule.rules)

let test_parser_negative_numbers () =
  let db, _ = run "v(-3). v(-1.5). big(X) :- v(X), X < 0." in
  check Alcotest.int "two" 2 (List.length (facts db "big"))

let test_parser_annotations () =
  let p = V.Parser.parse_program {|@input("own", "csv:own.csv"). p(a).|} in
  (match p.V.Rule.annotations with
   | [ { V.Rule.a_name = "input"; a_args = [ "own"; "csv:own.csv" ] } ] -> ()
   | _ -> Alcotest.fail "annotation mismatch")

let test_parser_anonymous_vars () =
  let db, _ = run "p(1, 2). p(3, 4). q(X) :- p(X, _)." in
  check Alcotest.int "projected" 2 (List.length (facts db "q"))

let test_pp_roundtrip () =
  let src =
    {| edge(a, b).
       tc(X, Y) :- edge(X, Y).
       tc(X, Z) :- tc(X, Y), edge(Y, Z), X != Z.
       agg(X, S) :- tc(X, Y), W = 1, S = sum(W).
    |}
  in
  let p1 = V.Parser.parse_program src in
  let printed = V.Rule.program_to_string p1 in
  let p2 = V.Parser.parse_program printed in
  check Alcotest.int "same rule count" (List.length p1.V.Rule.rules)
    (List.length p2.V.Rule.rules);
  (* both programs compute the same fixpoint *)
  let db1, _ = run src in
  let db2, _ = run printed in
  check Alcotest.bool "same tc" true (facts db1 "tc" = facts db2 "tc")

let test_parse_error_position () =
  match Kgm_error.guard (fun () -> V.Parser.parse_program "p(X :- q(X).") with
  | Error { Kgm_error.stage = Kgm_error.Parse; message; _ } ->
      check Alcotest.bool "line number in message" true
        (String.length message > 0)
  | _ -> Alcotest.fail "expected parse error"

(* ------------------------------------------------------------------ *)
(* Core semantics *)

let test_transitive_closure () =
  let db, _ = run
      {| edge(1, 2). edge(2, 3). edge(3, 4).
         tc(X, Y) :- edge(X, Y).
         tc(X, Z) :- tc(X, Y), edge(Y, Z). |}
  in
  check Alcotest.int "6 pairs" 6 (List.length (facts db "tc"))

let test_same_generation () =
  let db, _ = run
      {| par(a, x). par(b, x). par(c, y). par(d, y). par(x, r). par(y, r).
         sg(A, B) :- par(A, P), par(B, P), A != B.
         sg(A, B) :- par(A, P), par(B, Q), sg(P, Q). |}
  in
  (* 6 sibling pairs (both directions) + 8 cousin pairs *)
  check Alcotest.int "same generation pairs" 14 (List.length (facts db "sg"))

let test_stratified_negation () =
  let db, _ = run
      {| node(1). node(2). node(3). edge(1, 2).
         connected(X) :- edge(X, _).
         connected(X) :- edge(_, X).
         isolated(X) :- node(X), not connected(X). |}
  in
  check Alcotest.bool "isolated 3" true (facts db "isolated" = ints [ [ 3 ] ])

let test_unstratifiable_rejected () =
  match Kgm_error.guard (fun () -> run "p(X) :- q(X), not p(X). q(1).") with
  | Error { Kgm_error.stage = Kgm_error.Validate; _ } -> ()
  | _ -> Alcotest.fail "expected stratification error"

let test_unsafe_rejected () =
  match Kgm_error.guard (fun () -> run "p(X) :- q(Y), X > 2. q(1).") with
  | Error { Kgm_error.stage = Kgm_error.Validate; _ } -> ()
  | _ -> Alcotest.fail "expected safety error"

let test_conditions_and_arith () =
  let db, _ = run
      {| n(1). n(2). n(3). n(4).
         even(X) :- n(X), Y = X / 2, Z = floor(to_float(Y)) * 2,
                    XF = to_float(X), ZF = to_float(Z), XF == ZF.
         double(X, Y) :- n(X), Y = X * 2. |}
  in
  check Alcotest.int "doubles" 4 (List.length (facts db "double"));
  check Alcotest.int "evens" 2 (List.length (facts db "even"));
  check Alcotest.bool "arith" true
    (List.mem [ Value.int 3; Value.int 6 ] (facts db "double"))

let test_string_builtins () =
  let db, _ = run
      {| w("Hello"). w("KG").
         up(Y) :- w(X), Y = upper(X).
         len(X, N) :- w(X), N = strlen(X).
         cat(Z) :- w(X), w(Y), X != Y, Z = X ++ "-" ++ Y. |}
  in
  check Alcotest.bool "upper" true
    (List.mem [ Value.string "HELLO" ] (facts db "up"));
  check Alcotest.bool "strlen" true
    (List.mem [ Value.string "KG"; Value.int 2 ] (facts db "len"));
  check Alcotest.int "concat pairs" 2 (List.length (facts db "cat"))

let test_assignment_as_check () =
  (* assigning to a bound variable acts as an equality filter *)
  let db, _ = run "p(1). p(2). q(X) :- p(X), X = 1." in
  check Alcotest.bool "filtered" true (facts db "q" = ints [ [ 1 ] ])

let test_bool_conditions () =
  let db, _ = run
      {| t(1, true). t(2, false).
         on(X) :- t(X, B), B == true.
         off(X) :- t(X, B), B == false. |}
  in
  check Alcotest.bool "on" true (facts db "on" = ints [ [ 1 ] ]);
  check Alcotest.bool "off" true (facts db "off" = ints [ [ 2 ] ])

(* ------------------------------------------------------------------ *)
(* Aggregation *)

let test_stratified_sum () =
  let db, _ = run
      {| holds(s1, a, 0.5). holds(s2, a, 0.3). holds(s3, b, 1.0).
         total(C, T) :- holds(S, C, W), T = sum(W). |}
  in
  check Alcotest.bool "totals" true
    (facts db "total"
     = List.sort compare
         [ [ Value.string "a"; Value.float 0.8 ];
           [ Value.string "b"; Value.float 1.0 ] ])

let test_stratified_count_min_max () =
  let db, _ = run
      {| s(a, 3). s(a, 5). s(b, 2).
         c(K, N) :- s(K, V), N = count(V).
         mn(K, M) :- s(K, V), M = min(V).
         mx(K, M) :- s(K, V), M = max(V). |}
  in
  check Alcotest.bool "count a" true
    (List.mem [ Value.string "a"; Value.int 2 ] (facts db "c"));
  check Alcotest.bool "min a" true
    (List.mem [ Value.string "a"; Value.int 3 ] (facts db "mn"));
  check Alcotest.bool "max a" true
    (List.mem [ Value.string "a"; Value.int 5 ] (facts db "mx"))

let test_distinct_contributor_agg () =
  (* dsum dedups by contributor key at fixpoint: duplicated atoms do not
     double count *)
  let db, _ = run
      {| h(p1, s1, c, 0.4). h(p2, s2, c, 0.3).
         mirror(P, S, C, W) :- h(P, S, C, W).
         tot(C, T) :- h(P, S, C, W), mirror(P, S, C, W), T = dsum(W, <S>). |}
  in
  check Alcotest.bool "dedup by share" true
    (facts db "tot" = [ [ Value.string "c"; Value.float 0.7 ] ])

let test_monotonic_sum_recursion () =
  let db, _ = run
      {| company(a). company(b). company(c). company(d).
         own(a, b, 0.3). own(a, c, 0.6). own(c, b, 0.25). own(b, d, 0.6). own(c, d, 0.1).
         controls(X, X) :- company(X).
         controls(X, Y) :- controls(X, Z), own(Z, Y, W), V = sum(W, <Z>), V > 0.5. |}
  in
  let nonrefl =
    List.filter (function [ a; b ] -> a <> b | _ -> false) (facts db "controls")
  in
  check Alcotest.bool "control set" true
    (nonrefl
     = List.sort compare
         [ [ Value.string "a"; Value.string "b" ];
           [ Value.string "a"; Value.string "c" ];
           [ Value.string "a"; Value.string "d" ];
           [ Value.string "b"; Value.string "d" ] ])

let test_monotonic_count () =
  let db, _ = run
      {| e(a, b). e(a, c). e(a, d).
         deg(X, N) :- e(X, Y), N = count(Y, <Y>), N >= 2. |}
  in
  (* partial counts stream: 2 and 3 both appear; threshold filters 1 *)
  let counts = List.filter_map (function
      | [ Value.String "a"; Value.Int n ] -> Some n
      | _ -> None) (facts db "deg") in
  check (Alcotest.list Alcotest.int) "streamed counts" [ 2; 3 ] (List.sort compare counts)

let test_pack_unpack () =
  let db, _ = run
      {| attr(n1, "name", "ada"). attr(n1, "age", 36).
         packed(N, P) :- attr(N, K, V), X = pair(K, V), P = pack(X).
         name(N, V) :- packed(N, P), V = unpack(P, "name").
         missing(N, V) :- packed(N, P), V = unpack_or(P, "ghost", "none"). |}
  in
  check Alcotest.bool "unpacked" true
    (facts db "name" = [ [ Value.string "n1"; Value.string "ada" ] ]);
  check Alcotest.bool "default" true
    (facts db "missing" = [ [ Value.string "n1"; Value.string "none" ] ])

let test_agg_in_cycle_rejected () =
  match
    Kgm_error.guard (fun () ->
        run "p(X, S) :- p(X, W), S = sum(W). p(a, 1).")
  with
  | Error { Kgm_error.stage = Kgm_error.Validate; _ } -> ()
  | _ -> Alcotest.fail "expected aggregated-cycle rejection"

(* ------------------------------------------------------------------ *)
(* Existentials, skolems, chase *)

let test_existential_invention () =
  let db, _ = run "person(p). node(N, X) :- person(X)." in
  match facts db "node" with
  | [ [ n; Value.String "p" ] ] ->
      check Alcotest.bool "labeled null" true (Value.is_null n)
  | _ -> Alcotest.fail "expected one invented node"

let test_restricted_chase_terminates () =
  (* employee-manager: everyone has a manager, managers are employees *)
  let db, stats = run
      {| emp(e1).
         mgr(X, M) :- emp(X).
         emp(M) :- mgr(X, M). |}
  in
  check Alcotest.bool "terminates small" true (stats.V.Engine.rounds < 10);
  check Alcotest.bool "bounded facts" true (List.length (facts db "emp") <= 3)

let test_oblivious_chase_budget () =
  let options =
    { V.Engine.default_options with
      V.Engine.restricted_chase = false;
      max_facts = 500 }
  in
  match
    Kgm_error.guard (fun () ->
        run ~options
          {| emp(e1).
             mgr(X, M) :- emp(X).
             emp(M) :- mgr(X, M). |})
  with
  | Error { Kgm_error.stage = Kgm_error.Reason; _ } -> ()
  | _ -> Alcotest.fail "oblivious chase should exhaust the budget"

let test_skolem_reuse () =
  let db, _ = run
      {| p(a). p(b). q(a).
         node(K, X) :- p(X), K = #n(X).
         node2(K, X) :- q(X), K = #n(X). |}
  in
  (* same functor+args -> same id across rules *)
  match facts db "node", facts db "node2" with
  | [ [ ka; _ ]; _ ], [ [ ka'; _ ] ] ->
      check Alcotest.bool "shared skolem" true (Value.equal ka ka')
  | _ -> Alcotest.fail "unexpected shapes"

let test_multi_atom_head () =
  let db, _ = run
      {| person(p).
         dept(D, X), member(X, D) :- person(X). |}
  in
  (match facts db "dept", facts db "member" with
   | [ [ d; _ ] ], [ [ _; d' ] ] ->
       check Alcotest.bool "shared existential" true (Value.equal d d')
   | _ -> Alcotest.fail "expected one fact each");
  (* idempotence: rerunning the program derives nothing new *)
  let p = V.Parser.parse_program "dept(D, X), member(X, D) :- person(X)." in
  let db2 = db in
  let stats = V.Engine.run p db2 in
  check Alcotest.int "idempotent" 0 stats.V.Engine.new_facts

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_wardedness_ok () =
  let p = V.Parser.parse_program
      {| mgr(X, M) :- emp(X).
         emp(M) :- mgr(X, M). |}
  in
  let r = V.Analysis.wardedness p in
  check Alcotest.bool "warded" true r.V.Analysis.warded

let test_wardedness_violation () =
  (* two dangerous variables from different atoms joined in the head *)
  let p = V.Parser.parse_program
      {| p(X, Y) :- a(X).
         p2(X, Y) :- b(X).
         both(Y, Z) :- p(X, Y), p2(W, Z). |}
  in
  let r = V.Analysis.wardedness p in
  check Alcotest.bool "not warded" false r.V.Analysis.warded;
  check Alcotest.bool "violation reported" true (r.V.Analysis.violations <> [])

let test_stratify_structure () =
  let p = V.Parser.parse_program
      {| b(X) :- a(X).
         c(X) :- b(X), not a2(X).
         a2(X) :- a(X). |}
  in
  let s = V.Analysis.stratify p in
  let stratum pred = V.Analysis.SMap.find pred s.V.Analysis.stratum_of in
  check Alcotest.bool "a before c" true (stratum "a" < stratum "c");
  check Alcotest.bool "a2 before c" true (stratum "a2" < stratum "c")

let test_recursive_detection () =
  let p1 = V.Parser.parse_program "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z)." in
  check Alcotest.bool "recursive" true (V.Analysis.is_recursive_program p1);
  let p2 = V.Parser.parse_program "b(X) :- a(X). c(X) :- b(X)." in
  check Alcotest.bool "non-recursive" false (V.Analysis.is_recursive_program p2)

(* ------------------------------------------------------------------ *)
(* Ablations: naive vs semi-naive, restricted vs oblivious *)

let tc_program n =
  let buf = Buffer.create 256 in
  for i = 1 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "edge(%d, %d). " i (i + 1))
  done;
  Buffer.add_string buf "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";
  Buffer.contents buf

let test_naive_equals_semi_naive () =
  let src = tc_program 12 in
  let db1, s1 = run src in
  let db2, s2 =
    run ~options:{ V.Engine.default_options with V.Engine.semi_naive = false } src
  in
  check Alcotest.bool "same fixpoint" true (facts db1 "tc" = facts db2 "tc");
  check Alcotest.bool "both count facts equally" true
    (s1.V.Engine.new_facts = s2.V.Engine.new_facts)

let test_oblivious_equals_restricted_nonrecursive () =
  (* on programs without existential recursion the chase variants agree *)
  let src = "p(1). p(2). q(X, Y) :- p(X), p(Y)." in
  let db1, _ = run src in
  let db2, _ =
    run ~options:{ V.Engine.default_options with V.Engine.restricted_chase = false } src
  in
  check Alcotest.bool "same" true (facts db1 "q" = facts db2 "q")

let prop_tc_matches_reachability =
  QCheck.Test.make ~name:"datalog TC = BFS reachability" ~count:60
    QCheck.(pair (int_range 2 8) (small_list (pair (int_bound 7) (int_bound 7))))
    (fun (n, edges) ->
      let edges = List.filter (fun (a, b) -> a < n && b < n) edges in
      let src =
        String.concat " "
          (List.map (fun (a, b) -> Printf.sprintf "edge(%d, %d)." a b) edges)
        ^ " tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."
      in
      let db, _ = run src in
      let g = Kgm_algo.Digraph.of_edges n edges in
      let expected = ref [] in
      for v = 0 to n - 1 do
        if Kgm_algo.Digraph.out_degree g v > 0 then begin
          let d = Kgm_algo.Traverse.bfs g v in
          Array.iteri
            (fun w dist ->
              if dist > 0 then expected := [ Value.int v; Value.int w ] :: !expected)
            d
        end
      done;
      (* BFS distance 0 misses self-loops reachable via cycles; recompute
         with explicit cycle check *)
      let self = ref [] in
      List.iter
        (fun (a, b) ->
          ignore a;
          ignore b)
        edges;
      for v = 0 to n - 1 do
        let reachable_back = ref false in
        Kgm_algo.Digraph.iter_succ g v (fun w ->
            let d = Kgm_algo.Traverse.bfs g w in
            if w = v || (v < Array.length d && d.(v) >= 0) then reachable_back := true);
        if !reachable_back then self := [ Value.int v; Value.int v ] :: !self
      done;
      let expected = List.sort_uniq compare (!expected @ !self) in
      facts db "tc" = expected)

let suite =
  [ ("lexer tokens", `Quick, test_lexer_tokens);
    ("lexer string escapes", `Quick, test_lexer_string_escape);
    ("lexer unterminated string", `Quick, test_lexer_unterminated);
    ("parser facts and rules", `Quick, test_parser_facts_and_rules);
    ("parser negative numbers", `Quick, test_parser_negative_numbers);
    ("parser annotations", `Quick, test_parser_annotations);
    ("parser anonymous vars", `Quick, test_parser_anonymous_vars);
    ("pp roundtrip", `Quick, test_pp_roundtrip);
    ("parse error reporting", `Quick, test_parse_error_position);
    ("transitive closure", `Quick, test_transitive_closure);
    ("same generation", `Quick, test_same_generation);
    ("stratified negation", `Quick, test_stratified_negation);
    ("unstratifiable rejected", `Quick, test_unstratifiable_rejected);
    ("unsafe rule rejected", `Quick, test_unsafe_rejected);
    ("conditions and arithmetic", `Quick, test_conditions_and_arith);
    ("string builtins", `Quick, test_string_builtins);
    ("assignment as equality check", `Quick, test_assignment_as_check);
    ("boolean conditions", `Quick, test_bool_conditions);
    ("stratified sum", `Quick, test_stratified_sum);
    ("stratified count/min/max", `Quick, test_stratified_count_min_max);
    ("distinct-contributor aggregation", `Quick, test_distinct_contributor_agg);
    ("monotonic sum in recursion (Ex. 4.2)", `Quick, test_monotonic_sum_recursion);
    ("monotonic count streams", `Quick, test_monotonic_count);
    ("pack/unpack", `Quick, test_pack_unpack);
    ("aggregate inside cycle rejected", `Quick, test_agg_in_cycle_rejected);
    ("existential invention", `Quick, test_existential_invention);
    ("restricted chase terminates", `Quick, test_restricted_chase_terminates);
    ("oblivious chase hits budget", `Quick, test_oblivious_chase_budget);
    ("linker skolem reuse", `Quick, test_skolem_reuse);
    ("multi-atom heads share existentials", `Quick, test_multi_atom_head);
    ("wardedness: positive case", `Quick, test_wardedness_ok);
    ("wardedness: violation", `Quick, test_wardedness_violation);
    ("stratification structure", `Quick, test_stratify_structure);
    ("recursion detection", `Quick, test_recursive_detection);
    ("ABL-2: naive = semi-naive", `Quick, test_naive_equals_semi_naive);
    ("ABL-1: chase variants agree (non-recursive)", `Quick,
     test_oblivious_equals_restricted_nonrecursive);
    qtest prop_tc_matches_reachability ]

(* ------------------------------------------------------------------ *)
(* Provenance and @output *)

let test_provenance () =
  let p = V.Parser.parse_program
      {| edge(a, b). edge(b, c).
         tc(X, Y) :- edge(X, Y).
         tc(X, Z) :- tc(X, Y), edge(Y, Z). |}
  in
  let options = { V.Engine.default_options with V.Engine.provenance = true } in
  let _, stats = V.Engine.run_program ~options p in
  let sup = Option.get stats.V.Engine.support in
  let explain pred a b =
    V.Engine.explain_tree sup p pred [| Value.string a; Value.string b |]
  in
  let derivation (t : V.Engine.explain_tree) =
    match t.V.Engine.et_node with
    | V.Engine.Derived d -> d
    | _ -> Alcotest.fail "missing derivation"
  in
  let premises t = (derivation t).V.Engine.ed_premises in
  (* ground facts have no derivation *)
  check Alcotest.bool "ground" true
    ((explain "edge" "a" "b").V.Engine.et_node = V.Engine.Ground);
  (* one-step derivation *)
  let d = derivation (explain "tc" "a" "b") in
  check Alcotest.int "one parent" 1 (List.length d.V.Engine.ed_premises);
  check Alcotest.bool "via base rule" true
    (String.length d.V.Engine.ed_rule > 0);
  (* two-step derivation: parents are tc(a,b) and edge(b,c) *)
  let names =
    List.map (fun t -> t.V.Engine.et_pred) (premises (explain "tc" "a" "c"))
    |> List.sort compare
  in
  check (Alcotest.list Alcotest.string) "parents" [ "edge"; "tc" ] names;
  (* the tree renders down to ground facts *)
  let tree = V.Engine.explain_tree_to_string (explain "tc" "a" "c") in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "tree reaches a ground fact" true
    (contains tree "(ground)")

let test_outputs_annotation () =
  let p = V.Parser.parse_program
      {| @output("big").
         n(1). n(5).
         big(X) :- n(X), X > 2. |}
  in
  let db, _ = V.Engine.run_program p in
  match V.Engine.outputs p db with
  | [ ("big", facts) ] -> check Alcotest.int "one output fact" 1 (List.length facts)
  | _ -> Alcotest.fail "expected one output predicate"

let suite =
  suite
  @ [ ("provenance derivation trees", `Quick, test_provenance);
      ("@output annotation", `Quick, test_outputs_annotation) ]

(* ------------------------------------------------------------------ *)
(* ABL-4: join ordering *)

let test_reorder_correctness () =
  (* a body written in a pathological order must produce the same
     fixpoint with and without reordering *)
  let src =
    {| p(1). p(2). p(3). q(2). q(3). r(3).
       sel(X) :- p(X), q(X), r(X).
       join(A, C) :- p(A), p(B), p(C), A < B, B < C. |}
  in
  let run reorder =
    let p = V.Parser.parse_program src in
    V.Engine.run_program
      ~options:{ V.Engine.default_options with V.Engine.reorder_body = reorder }
      p
  in
  let db1, _ = run true in
  let db2, _ = run false in
  check Alcotest.bool "sel same" true (facts db1 "sel" = facts db2 "sel");
  check Alcotest.bool "join same" true (facts db1 "join" = facts db2 "join");
  check Alcotest.bool "sel = {3}" true (facts db1 "sel" = ints [ [ 3 ] ])

let test_reorder_speeds_up_bad_order () =
  (* cross-product first, selective atom last: the optimizer must help *)
  let buf = Buffer.create 4096 in
  for i = 1 to 60 do
    Buffer.add_string buf (Printf.sprintf "big(%d). " i)
  done;
  Buffer.add_string buf "tiny(1). ";
  Buffer.add_string buf
    "out(X, Y, Z) :- big(X), big(Y), big(Z), tiny(X), tiny(Y), tiny(Z).";
  let src = Buffer.contents buf in
  let time reorder =
    let t0 = Kgm_telemetry.Clock.now () in
    let p = V.Parser.parse_program src in
    let db, _ =
      V.Engine.run_program
        ~options:{ V.Engine.default_options with V.Engine.reorder_body = reorder }
        p
    in
    (Kgm_telemetry.Clock.now () -. t0, List.length (facts db "out"))
  in
  let t_opt, n_opt = time true in
  let t_raw, n_raw = time false in
  check Alcotest.int "same answers" n_raw n_opt;
  check Alcotest.int "one tuple" 1 n_opt;
  (* don't assert a hard speedup factor (timing noise); just sanity *)
  check Alcotest.bool "optimizer not absurdly slower" true (t_opt < t_raw +. 1.0)

let prop_reorder_equivalence =
  QCheck.Test.make ~name:"ABL-4: reordering preserves fixpoints" ~count:40
    QCheck.(pair (int_range 2 6) (small_list (pair (int_bound 5) (int_bound 5))))
    (fun (n, edges) ->
      let edges = List.filter (fun (a, b) -> a < n && b < n) edges in
      let src =
        String.concat " "
          (List.map (fun (a, b) -> Printf.sprintf "edge(%d, %d)." a b) edges)
        ^ " two(X, Z) :- edge(X, Y), edge(Y, Z).\
           tri(X) :- edge(X, Y), edge(Y, Z), edge(Z, X)."
      in
      let run reorder =
        let p = V.Parser.parse_program src in
        let db, _ =
          V.Engine.run_program
            ~options:
              { V.Engine.default_options with V.Engine.reorder_body = reorder }
            p
        in
        (facts db "two", facts db "tri")
      in
      run true = run false)

let suite =
  suite
  @ [ ("ABL-4: reorder correctness", `Quick, test_reorder_correctness);
      ("ABL-4: reorder helps bad orders", `Quick, test_reorder_speeds_up_bad_order);
      qtest prop_reorder_equivalence ]

(* ------------------------------------------------------------------ *)
(* Expression builtin coverage *)

let test_builtin_coverage () =
  let db, _ = run
      {| s("Knowledge Graphs").
         d(2022, 3, 29).
         m(X) :- s(S), X = substr(S, 0, 9).
         mm(A, B) :- s(S), A = min2(1, 2), B = max2(1, 2).
         ab(X) :- s(S), X = abs(-4).
         yr(Y) :- d(A, B, C), Y = A + 1.
         pr(P) :- s(S), P = pair(S, 1), F = fst(P), F == S. |}
  in
  check Alcotest.bool "substr" true
    (facts db "m" = [ [ Value.string "Knowledge" ] ]);
  check Alcotest.bool "min2/max2" true
    (facts db "mm" = [ [ Value.int 1; Value.int 2 ] ]);
  check Alcotest.bool "abs" true (facts db "ab" = ints [ [ 4 ] ]);
  check Alcotest.bool "arith on columns" true (facts db "yr" = ints [ [ 2023 ] ]);
  check Alcotest.int "pair/fst" 1 (List.length (facts db "pr"))

let test_division_by_zero () =
  try
    ignore (run "p(1). q(X) :- p(X), Y = X / 0.");
    Alcotest.fail "expected division error"
  with V.Expr.Eval_error _ -> ()

let test_unknown_builtin () =
  (try
     ignore (run "p(1). q(X) :- p(X), Y = frobnicate(X).");
     Alcotest.fail "unknown builtin accepted"
   with V.Expr.Eval_error _ -> ())

let test_precedence () =
  let db, _ = run
      {| n(10).
         a(X) :- n(N), X = 1 + 2 * N.
         b(X) :- n(N), X = (1 + 2) * N.
         c(1) :- n(N), N - 4 > 2 + 3.
         d(1) :- n(N), DF = to_float(N), DD = DF / 4.0, DD > 2.0. |}
  in
  check Alcotest.bool "mul binds tighter" true (facts db "a" = ints [ [ 21 ] ]);
  check Alcotest.bool "parens" true (facts db "b" = ints [ [ 30 ] ]);
  check Alcotest.int "comparison arithmetic" 1 (List.length (facts db "c"));
  check Alcotest.int "float division" 1 (List.length (facts db "d"))

let test_stratified_agg_after_conditions () =
  (* conditions after a stratified aggregate filter groups *)
  let db, _ = run
      {| h(a, 1.0). h(a, 2.0). h(b, 0.5).
         big(K, T) :- h(K, W), T = sum(W), T > 1.0. |}
  in
  check Alcotest.bool "only a" true
    (facts db "big" = [ [ Value.string "a"; Value.float 3.0 ] ])

let test_two_monotonic_aggs () =
  (* two monotonic aggregates over the same relation, combined by a join:
     each keeps its own per-group contributor state *)
  let db, _ = run
      {| e(a, b, 1.0). e(a, c, 2.0). e(b, c, 4.0).
         deg(X, C) :- e(X, Y, W), C = count(Y, <Y>), C >= 2.
         tot(X, S) :- e(X, Y, W), S = sum(W, <Y>), S >= 3.0.
         both(X) :- deg(X, C), tot(X, S). |}
  in
  check Alcotest.bool "only a reaches both thresholds" true
    (facts db "both" = [ [ Value.string "a" ] ])

let suite =
  suite
  @ [ ("builtin coverage", `Quick, test_builtin_coverage);
      ("division by zero", `Quick, test_division_by_zero);
      ("unknown builtin", `Quick, test_unknown_builtin);
      ("expression precedence", `Quick, test_precedence);
      ("stratified agg + trailing conditions", `Quick,
       test_stratified_agg_after_conditions);
      ("two monotonic aggregates", `Quick, test_two_monotonic_aggs) ]

(* ------------------------------------------------------------------ *)
(* @input source resolution *)

let test_input_sources () =
  (* inline rows *)
  let p = V.Parser.parse_program
      {| @input("own", "inline:1, 2, 0.6; 2, 3, 0.7").
         tc(X, Y) :- own(X, Y, W), W > 0.5. |}
  in
  let db = V.Database.create () in
  (match V.Io_sources.load_inputs p db with
   | [ ("own", 2) ] -> ()
   | _ -> Alcotest.fail "inline rows not loaded");
  ignore (V.Engine.run p db);
  check Alcotest.int "rules over loaded facts" 2 (List.length (facts db "tc"));
  (* csv file *)
  let path = Filename.temp_file "kgm" ".csv" in
  let oc = open_out path in
  output_string oc "a, 1\nb, 2\n";
  close_out oc;
  let p2 = V.Parser.parse_program
      (Printf.sprintf "@input(\"t\", \"csv:%s\"). big(X) :- t(X, N), N >= 2." path)
  in
  let db2 = V.Database.create () in
  (match V.Io_sources.load_inputs p2 db2 with
   | [ ("t", 2) ] -> ()
   | _ -> Alcotest.fail "csv not loaded");
  ignore (V.Engine.run p2 db2);
  check Alcotest.bool "values typed" true
    (facts db2 "big" = [ [ Value.string "b" ] ]);
  Sys.remove path;
  (* missing file *)
  let p3 = V.Parser.parse_program "@input(\"t\", \"csv:/nonexistent/x.csv\"). t(0)." in
  (match Kgm_error.guard (fun () -> V.Io_sources.load_inputs p3 (V.Database.create ())) with
   | Error { Kgm_error.stage = Kgm_error.Storage; _ } -> ()
   | _ -> Alcotest.fail "missing csv accepted");
  (* cypher-style sources are skipped, not errors *)
  let p4 = V.Parser.parse_program "@input(\"n\", \"MATCH (n) RETURN n\"). n(0)." in
  check Alcotest.int "unresolvable skipped" 0
    (List.length (V.Io_sources.load_inputs p4 (V.Database.create ())))

let suite = suite @ [ ("@input csv/inline sources", `Quick, test_input_sources) ]

(* ------------------------------------------------------------------ *)
(* The store under removal: random add / remove_batch sequences against
   a reference list per predicate. Removal tombstones slots and leaves
   sequence gaps until a compaction, which must never show: facts in
   insertion order, counts, and every probe's matches in order, over an
   index kept up to date through the removals, one built afterwards and
   the frozen linear-scan and side-car paths. A twin fed the recorded
   operations answers the same. *)

type db_op = Add of string * int * int | Rem of (string * int * int) list

let db_op_gen =
  QCheck.Gen.(
    let fact = triple (oneofl [ "p"; "q" ]) (int_bound 5) (int_bound 5) in
    frequency
      [ (3, map (fun (p, a, b) -> Add (p, a, b)) fact);
        (2, map (fun l -> Rem l) (list_size (int_range 1 6) fact)) ])

let show_db_op = function
  | Add (p, a, b) -> Printf.sprintf "+%s(%d,%d)" p a b
  | Rem l ->
      "-["
      ^ String.concat ";" (List.map (fun (p, a, b) -> Printf.sprintf "%s(%d,%d)" p a b) l)
      ^ "]"

let db_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_db_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 0 80) db_op_gen)

let ifact a b = [| Value.Int a; Value.Int b |]

let prop_store_matches_reference ops =
  let module D = V.Database in
  let db = D.create () in
  let model = Hashtbl.create 2 in
  let facts_of p = Option.value ~default:[] (Hashtbl.find_opt model p) in
  (* one fact per predicate first, so an index exists before any removal *)
  List.iter
    (fun p ->
      ignore (D.add db p (ifact 9 9));
      Hashtbl.replace model p [ (9, 9) ];
      D.prepare_index db p [ 0 ])
    [ "p"; "q" ];
  let twin = D.copy db in
  D.record db true;
  let agrees db =
    let matches p keep = List.filter keep (facts_of p) in
    let same p got want =
      List.map (fun f -> (f.(0), f.(1))) got
      = List.map (fun (a, b) -> (Value.Int a, Value.Int b)) want
      || QCheck.Test.fail_reportf "%s: probe disagrees with the reference" p
    in
    let ascending p positions key =
      let last = ref (-1) and ok = ref true in
      ignore
        (D.iter_matches db p positions key (fun seq _ ->
             if seq <= !last then ok := false;
             last := seq));
      !ok || QCheck.Test.fail_reportf "%s: sequence numbers not ascending" p
    in
    List.for_all
      (fun p ->
        let want = facts_of p in
        same p (D.facts db p) want
        && D.count db p = List.length want
        && ascending p [] []
        && List.for_all
             (fun k ->
               let key = [ Value.Int k ] in
               (* every non-empty position subset; a frozen probe builds
                  a missing index, which later writes maintain *)
               let probes =
                 [ ([ 0 ], key, fun (a, _) -> a = k);
                   ([ 1 ], key, fun (_, b) -> b = k);
                   ([ 0; 1 ], [ Value.Int k; Value.Int k ], fun (a, b) -> a = k && b = k) ]
               in
               let all_agree () =
                 List.for_all
                   (fun (positions, key, keep) ->
                     same p (D.lookup db p positions key) (matches p keep))
                   probes
               in
               D.freeze db;
               let frozen = all_agree () in
               D.thaw db;
               frozen && all_agree () && ascending p [ 0 ] key)
             [ 0; 1; 2; 3; 4; 5; 9 ])
      [ "p"; "q" ]
    && D.total db = List.length (facts_of "p") + List.length (facts_of "q")
    && D.predicates db
       = List.filter (fun p -> facts_of p <> []) [ "p"; "q" ]
  in
  let applied = ref 0 in
  let step = function
    | Add (p, a, b) ->
        let known = List.mem (a, b) (facts_of p) in
        let fresh = D.add db p (ifact a b) in
        if fresh then begin
          incr applied;
          Hashtbl.replace model p (facts_of p @ [ (a, b) ])
        end;
        fresh = not known
    | Rem l ->
        let doomed = List.sort_uniq compare l in
        let present =
          List.filter (fun (p, a, b) -> List.mem (a, b) (facts_of p)) doomed
        in
        let removed =
          D.remove_batch db (List.map (fun (p, a, b) -> (p, ifact a b)) l)
        in
        List.iter
          (fun (p, a, b) ->
            Hashtbl.replace model p
              (List.filter (fun f -> f <> (a, b)) (facts_of p)))
          present;
        applied := !applied + removed;
        removed = List.length present
  in
  List.for_all (fun op -> step op && agrees db) ops
  && D.replay db ~into:twin = !applied
  && D.replay db ~into:twin = 0
  && agrees twin

let test_store_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"store: add/remove_batch = reference; twin replay"
       ~count:200 db_ops_arb prop_store_matches_reference)

(* the compaction policy, seen through sequence numbers: removal leaves
   gaps while dead slots are at most the live facts, and renumbers the
   survivors densely, in order, once they outnumber them *)
let test_tombstone_compaction () =
  let module D = V.Database in
  let db = D.create () in
  for i = 0 to 9 do
    ignore (D.add db "e" [| Value.Int i |])
  done;
  D.prepare_index db "e" [ 0 ];
  let seqs () =
    let acc = ref [] in
    ignore (D.iter_matches db "e" [] [] (fun seq f -> acc := (seq, f.(0)) :: !acc));
    List.rev !acc
  in
  let remove is = D.remove_batch db (List.map (fun i -> ("e", [| Value.Int i |])) is) in
  check Alcotest.int "two removed" 2 (remove [ 1; 3 ]);
  check
    Alcotest.(list (pair int string))
    "gaps, no compaction (2 dead, 8 live)"
    [ (0, "0"); (2, "2"); (4, "4"); (5, "5"); (6, "6"); (7, "7"); (8, "8"); (9, "9") ]
    (List.map (fun (s, v) -> (s, Value.to_string v)) (seqs ()));
  check Alcotest.int "four more removed" 4 (remove [ 0; 2; 4; 5 ]);
  check
    Alcotest.(list (pair int string))
    "compacted once dead slots outnumbered live facts"
    [ (0, "6"); (1, "7"); (2, "8"); (3, "9") ]
    (List.map (fun (s, v) -> (s, Value.to_string v)) (seqs ()));
  check Alcotest.int "count is live facts" 4 (D.count db "e");
  check Alcotest.(list string) "index follows the renumbering" [ "8" ]
    (List.map (fun f -> Value.to_string f.(0)) (D.lookup db "e" [ 0 ] [ Value.Int 8 ]))

(* facts whose ids step together spread over the buckets: chain-shaped
   own(v, v+1, w) over consecutive ids, and their two-position probe
   keys. A [h * 31 + id] fold left the low bits of such hashes
   constant, so they shared 1/32 of the buckets. *)
let test_hash_spread () =
  let module D = V.Database in
  let facts = D.IFactTbl.create 256 and keys = D.IKeyTbl.create 256 in
  for v = 0 to 49_999 do
    D.IFactTbl.replace facts [| 1000 + v; 1001 + v; 7 |] ();
    D.IKeyTbl.replace keys [ 1000 + v; 1001 + v ] ()
  done;
  let bounded what (s : Hashtbl.statistics) =
    check Alcotest.bool
      (Printf.sprintf "%s: longest bucket %d <= 16 (%d buckets)" what
         s.Hashtbl.max_bucket_length s.Hashtbl.num_buckets)
      true
      (s.Hashtbl.max_bucket_length <= 16)
  in
  bounded "chain-shaped facts" (D.IFactTbl.stats facts);
  bounded "two-position keys" (D.IKeyTbl.stats keys)

(* a probe can be stopped: [iter_matches_i] then counts what it visited
   up to the stop; [probe_size] is what a whole probe would examine *)
let test_probe_stop_and_size () =
  let module D = V.Database in
  let db = D.create () in
  for i = 0 to 9 do
    ignore (D.add db "e" [| Value.Int (i mod 2); Value.Int i |])
  done;
  let id v = Option.get (Intern.find (D.dict db) (Value.Int v)) in
  let probe ?stop positions key =
    let seen = ref 0 in
    let examined =
      D.iter_matches_i db "e" positions key (fun _ _ ->
          incr seen;
          Some !seen = stop)
    in
    (examined, !seen)
  in
  let pair = Alcotest.(pair int int) in
  check Alcotest.int "indexed group size" 5 (D.probe_size db "e" [ 0 ] [ id 0 ]);
  check pair "indexed, whole group" (5, 5) (probe [ 0 ] [ id 0 ]);
  check pair "indexed, stopped at the second" (2, 2) (probe ~stop:2 [ 0 ] [ id 0 ]);
  check Alcotest.int "full scan size" 10 (D.probe_size db "e" [] []);
  check pair "full scan, stopped at the third" (3, 3) (probe ~stop:3 [] []);
  D.freeze db;
  check pair "frozen missing index: the first probe builds it" (1, 1)
    (probe ~stop:1 [ 1 ] [ id 7 ]);
  check pair "frozen, whole group" (1, 1) (probe [ 1 ] [ id 7 ]);
  check Alcotest.int "frozen: the group's size" 1 (D.probe_size db "e" [ 1 ] [ id 7 ]);
  check Alcotest.int "frozen missing index: probe_size builds it too" 1
    (D.probe_size db "e" [ 0; 1 ] [ id 1; id 7 ]);
  check Alcotest.(list (list int)) "the frozen store gained both" [ [ 0 ]; [ 0; 1 ]; [ 1 ] ]
    (D.indexed_patterns db "e");
  D.thaw db;
  ignore (D.remove_batch db [ ("e", [| Value.Int 0; Value.Int 0 |]) ]);
  check pair "tombstones are not examined" (9, 9) (probe [] []);
  check pair "nor stopped at" (1, 1) (probe ~stop:1 [] []);
  check Alcotest.int "absent key" 0 (D.probe_size db "e" [ 0 ] [ id 9 ])

let suite =
  suite
  @ [ test_store_matches_reference;
      ("probes stop early; probe sizes", `Quick, test_probe_stop_and_size);
      ("tombstones compact only past half dead", `Quick, test_tombstone_compaction);
      ("fact and key hashes spread stepping ids", `Quick, test_hash_spread) ]

(* ------------------------------------------------------------------ *)
(* Chase work in proportion to what it proves: the restricted-chase
   check visits the most selective head atom first, and a don't-care
   literal stops at its first witness when nothing could tell the
   witnesses apart. Neither may move a fact, a null, a round or a
   firing. *)

let chase_examined tele =
  Option.value ~default:0
    (List.assoc_opt "engine.chase.examined" (Kgm_telemetry.counters tele))

let rule_stat (stats : V.Engine.stats) i = List.nth stats.V.Engine.per_rule i

(* n(1..k); every mk fact carries a null C. Both head shapes start with
   e(C, Z, 1), where only the constant is bound when the check starts
   (C is an unmapped body null, Z existential): visited in written order,
   every check lists every e fact. The second rule re-checks the first
   one's heads (all hits). *)
let selective_src k =
  String.concat " " (List.init k (fun i -> Printf.sprintf "n(%d)." (i + 1)))
  ^ {|
     mk(X, C) :- n(X).
     e(C, Z, 1), from(F, C, X, 1) :- mk(X, C).
     e(C, Z, 1), from(F, C, X, 1) :- mk(X, C), n(X). |}

(* canonical facts of [selective_src 40], computed with the written-order
   check *)
let selective_pin = "34c9ff8cd2beba84b1af52d348737646"

let test_selective_head_check () =
  List.iter
    (fun k ->
      let tele = Kgm_telemetry.create () in
      let db, stats =
        V.Engine.run_program ~telemetry:tele
          (V.Parser.parse_program (selective_src k))
      in
      let checks = stats.V.Engine.chase_hits + stats.V.Engine.chase_misses in
      (* mk invents one null per n fact, the first e/from rule two *)
      check Alcotest.int (Printf.sprintf "k=%d: misses" k) (2 * k)
        stats.V.Engine.chase_misses;
      check Alcotest.int (Printf.sprintf "k=%d: hits" k) k
        stats.V.Engine.chase_hits;
      let examined = chase_examined tele in
      (* a hit tries at least one candidate per head atom; the bound
         is per check, whatever k *)
      check Alcotest.bool
        (Printf.sprintf "k=%d: %d candidates for %d checks" k examined checks)
        true
        (examined >= 2 * stats.V.Engine.chase_hits && examined <= 2 * checks);
      if k = 40 then
        check Alcotest.string "facts as with the written-order check"
          selective_pin
          (Digest.to_hex (Digest.string (Test_parallel.canon_text db))))
    [ 40; 80 ]

(* p(1..3) with k witnesses w(x, 1..k) each. q and r test them with a
   don't-care; the recursive s rule does too, in delta rounds on the
   pool. *)
let witnesses_src k =
  {| p(1). p(2). p(3). nx(1, 2). nx(2, 3). |}
  ^ String.concat " "
      (List.concat_map
         (fun x -> List.init k (fun i -> Printf.sprintf "w(%d, %d)." x (i + 1)))
         [ 1; 2; 3 ])
  ^ {|
     q(X, C) :- p(X), w(X, _).
     r(X) :- p(X), w(X, _).
     s(X) :- p(X), nx(X, _).
     s(Y) :- s(X), nx(X, Y), w(Y, _). |}

let derived db =
  List.filter (fun (p, _) -> p <> "w") (Test_parallel.canon db)

let test_dont_care_first_witness () =
  let run_k ?(provenance = false) ?(jobs = 1) k =
    let options = { V.Engine.default_options with V.Engine.provenance; jobs } in
    run ~options (witnesses_src k)
  in
  let db1, s1 = run_k 1 in
  List.iter
    (fun k ->
      let db, s = run_k k in
      List.iter
        (fun i ->
          check Alcotest.int
            (Printf.sprintf "k=%d: rule %d matched" k i)
            (rule_stat s1 i).V.Engine.rs_matches
            (rule_stat s i).V.Engine.rs_matches)
        [ 0; 1; 2; 3 ];
      check Alcotest.bool (Printf.sprintf "k=%d: facts and nulls" k) true
        (derived db = derived db1);
      check Alcotest.int (Printf.sprintf "k=%d: nulls" k)
        s1.V.Engine.nulls_invented s.V.Engine.nulls_invented;
      (* every witness enumerated when support is recorded: same store,
         same rounds, one match per witness *)
      let dbp, sp = run_k ~provenance:true k in
      check Alcotest.string (Printf.sprintf "k=%d: as the full enumeration" k)
        (Test_parallel.canon_text dbp) (Test_parallel.canon_text db);
      check Alcotest.(list int)
        (Printf.sprintf "k=%d: delta sizes" k)
        sp.V.Engine.delta_sizes s.V.Engine.delta_sizes;
      check Alcotest.int (Printf.sprintf "k=%d: q matched, all witnesses" k)
        (3 * k) (rule_stat sp 0).V.Engine.rs_matches;
      check Alcotest.int (Printf.sprintf "k=%d: q hits, all witnesses" k)
        (3 * (k - 1)) (rule_stat sp 0).V.Engine.rs_chase_hits;
      check Alcotest.int (Printf.sprintf "k=%d: q hits, first witness" k) 0
        (rule_stat s 0).V.Engine.rs_chase_hits;
      (* the oblivious chase invents per match: every witness counts *)
      let dbo, _ =
        run
          ~options:{ V.Engine.default_options with V.Engine.restricted_chase = false }
          (witnesses_src k)
      in
      check Alcotest.int (Printf.sprintf "k=%d: oblivious q facts" k) (3 * k)
        (V.Database.count dbo "q");
      (* the pool's chunks do not change what stops *)
      let _, s2 = run_k ~jobs:2 k in
      check Alcotest.bool (Printf.sprintf "k=%d: counters at jobs 2" k) true
        (Test_parallel.rule_counters s = Test_parallel.rule_counters s2))
    [ 1; 4 ]

(* the don't-care w(X, _) is followed by t(X, Y), which the rule itself
   derives: in round 0 (live store) each witness re-reads t and finds
   what the previous one derived, so every witness must be enumerated *)
let test_dont_care_live_later_literal () =
  let src =
    {| a(1). w(1, 10). w(1, 11). w(1, 12). t(1, 0).
       nx(0, 1). nx(1, 2). nx(2, 3). nx(3, 4). nx(4, 5). nx(5, 6).
       t(X, Z) :- a(X), w(X, _), t(X, Y), nx(Y, Z). |}
  in
  let db, s = run src in
  let options = { V.Engine.default_options with V.Engine.provenance = true } in
  let dbp, sp = run ~options src in
  check Alcotest.int "round 0 derives one fact per witness" 3
    (List.hd s.V.Engine.delta_sizes);
  check Alcotest.(list int) "delta sizes as the full enumeration"
    sp.V.Engine.delta_sizes s.V.Engine.delta_sizes;
  check Alcotest.int "rounds" sp.V.Engine.rounds s.V.Engine.rounds;
  check Alcotest.string "facts" (Test_parallel.canon_text dbp) (Test_parallel.canon_text db)

let test_dont_care_support () =
  let k = 5 in
  let src =
    "p(1). "
    ^ String.concat " " (List.init k (fun i -> Printf.sprintf "w(1, %d)." (i + 1)))
    ^ " r(X) :- p(X), w(X, _)."
  in
  let options = { V.Engine.default_options with V.Engine.provenance = true } in
  let _, stats = run ~options src in
  let sup = Option.get stats.V.Engine.support in
  check Alcotest.int "one support entry per witness" k
    (List.length (V.Support.entries sup "r" [| Value.Int 1 |]));
  check Alcotest.int "one match per witness" k
    (rule_stat stats 0).V.Engine.rs_matches

let suite =
  suite
  @ [ ("restricted-chase check: most selective atom first", `Quick,
       test_selective_head_check);
      ("don't-care literal: first witness", `Quick, test_dont_care_first_witness);
      ("don't-care literal: live later literal enumerates", `Quick,
       test_dont_care_live_later_literal);
      ("don't-care literal: support keeps every witness", `Quick,
       test_dont_care_support) ]
