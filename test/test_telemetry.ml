(* Tests for Kgm_telemetry (clock, spans, histograms, exporters) and
   for the engine's per-rule chase instrumentation. *)

module T = Kgm_telemetry
module V = Kgm_vadalog

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock_monotonic () =
  let prev = ref (T.Clock.now ()) in
  for _ = 1 to 1000 do
    let t = T.Clock.now () in
    check Alcotest.bool "non-decreasing" true (t >= !prev);
    prev := t
  done;
  let a = T.Clock.now_ns () in
  let b = T.Clock.now_ns () in
  check Alcotest.bool "ns non-decreasing" true (Int64.compare b a >= 0)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram () =
  let h = T.Histogram.create () in
  List.iter (T.Histogram.observe h) [ 1e-6; 1e-5; 1e-4; 1e-3; 1e-3; 0.1 ];
  let s = T.Histogram.snapshot h in
  check Alcotest.int "count" 6 s.T.Histogram.count;
  check Alcotest.bool "sum" true (abs_float (s.T.Histogram.sum -. 0.102111) < 1e-6);
  check Alcotest.bool "min" true (s.T.Histogram.min = 1e-6);
  check Alcotest.bool "max" true (s.T.Histogram.max = 0.1);
  check Alcotest.bool "mean" true
    (abs_float (T.Histogram.mean s -. (0.102111 /. 6.)) < 1e-9);
  (* quantile bounds: p50 must sit well below the 0.1s outlier *)
  check Alcotest.bool "p50 < max" true (T.Histogram.quantile s 0.5 < 0.1);
  check Alcotest.bool "p100 = bucket of max" true
    (T.Histogram.quantile s 1.0 >= 0.1);
  (* empty snapshot *)
  let e = T.Histogram.snapshot (T.Histogram.create ()) in
  check Alcotest.int "empty count" 0 e.T.Histogram.count;
  check (Alcotest.float 0.) "empty quantile" 0. (T.Histogram.quantile e 0.9)

(* ------------------------------------------------------------------ *)
(* Spans: nesting, ordering, parenting *)

let test_span_nesting () =
  let t = T.create () in
  T.with_span t "a" (fun () ->
      T.with_span t "b" (fun () -> ());
      let t0 = T.Clock.now () in
      T.record_span t "r" ~start:t0 ~stop:(T.Clock.now ());
      T.with_span t "c" (fun () -> ()));
  T.with_span t "d" (fun () -> ());
  let spans = T.spans t in
  check (Alcotest.list Alcotest.string) "start order"
    [ "a"; "b"; "r"; "c"; "d" ]
    (List.map (fun s -> s.T.sp_name) spans);
  let by_name n = List.find (fun s -> s.T.sp_name = n) spans in
  let a = by_name "a" and b = by_name "b" and c = by_name "c" in
  let r = by_name "r" and d = by_name "d" in
  check (Alcotest.option Alcotest.int) "a top-level" None a.T.sp_parent;
  check (Alcotest.option Alcotest.int) "d top-level" None d.T.sp_parent;
  check (Alcotest.option Alcotest.int) "b under a" (Some a.T.sp_id) b.T.sp_parent;
  check (Alcotest.option Alcotest.int) "c under a" (Some a.T.sp_id) c.T.sp_parent;
  check (Alcotest.option Alcotest.int) "r under a" (Some a.T.sp_id) r.T.sp_parent;
  check Alcotest.int "a depth" 0 a.T.sp_depth;
  check Alcotest.int "b depth" 1 b.T.sp_depth;
  List.iter
    (fun s -> check Alcotest.bool "dur >= 0" true (s.T.sp_dur >= 0.))
    spans;
  (* children are contained in the parent *)
  check Alcotest.bool "b starts after a" true (b.T.sp_start >= a.T.sp_start);
  check Alcotest.bool "c ends before a ends" true
    (c.T.sp_start +. c.T.sp_dur <= a.T.sp_start +. a.T.sp_dur +. 1e-9)

let test_span_closed_on_exception () =
  let t = T.create () in
  (try T.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  match T.spans t with
  | [ s ] -> check Alcotest.string "span recorded" "boom" s.T.sp_name
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_null_collector_noop () =
  let ran = ref 0 in
  T.with_span T.null "a" (fun () -> incr ran);
  T.record_span T.null "b" ~start:0. ~stop:1.;
  T.count T.null "c";
  T.observe T.null "d" 1.0;
  check Alcotest.int "body ran" 1 !ran;
  check Alcotest.bool "disabled" false (T.enabled T.null);
  check Alcotest.int "no spans" 0 (List.length (T.spans T.null));
  check Alcotest.int "no counters" 0 (List.length (T.counters T.null));
  check Alcotest.int "no histograms" 0 (List.length (T.histograms T.null))

let test_counters () =
  let t = T.create () in
  T.count t "x";
  T.count t ~by:41 "x";
  T.count t "y";
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted counters"
    [ ("x", 42); ("y", 1) ]
    (T.counters t);
  T.reset t;
  check Alcotest.int "reset" 0 (List.length (T.counters t))

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser, enough to round-trip the Chrome trace export *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
           | Some '"' -> Buffer.add_char buf '"'; advance ()
           | Some '\\' -> Buffer.add_char buf '\\'; advance ()
           | Some 'n' -> Buffer.add_char buf '\n'; advance ()
           | Some 'r' -> Buffer.add_char buf '\r'; advance ()
           | Some 't' -> Buffer.add_char buf '\t'; advance ()
           | Some 'u' ->
               advance ();
               for _ = 1 to 4 do advance () done;
               Buffer.add_char buf '?'
           | _ -> fail "bad escape");
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while (match peek () with Some c when is_num c -> true | _ -> false) do
      advance ()
    done;
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); J_obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); J_arr [] end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (items [])
        end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> pos := !pos + 4; J_bool true
    | Some 'f' -> pos := !pos + 5; J_bool false
    | Some 'n' -> pos := !pos + 4; J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail "eof"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field k = function
  | J_obj kvs -> List.assoc_opt k kvs
  | _ -> None

let test_chrome_trace_roundtrip () =
  let t = T.create () in
  T.with_span t ~cat:"stage" "load" (fun () ->
      T.with_span t ~cat:"rule" ~args:[ ("fired", "3") ] "rule:tc/2"
        (fun () -> ()));
  T.with_span t ~cat:"stage" "with \"quotes\"\nand newline" (fun () -> ());
  T.count t ~by:7 "engine.facts.new";
  let json = T.chrome_trace ~process_name:"kgmodel-test" t in
  let parsed = parse_json json in
  let events =
    match obj_field "traceEvents" parsed with
    | Some (J_arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let complete =
    List.filter (fun e -> obj_field "ph" e = Some (J_str "X")) events
  in
  check Alcotest.int "one X event per span" (List.length (T.spans t))
    (List.length complete);
  let names =
    List.filter_map
      (fun e -> match obj_field "name" e with Some (J_str s) -> Some s | _ -> None)
      complete
  in
  check Alcotest.bool "load present" true (List.mem "load" names);
  check Alcotest.bool "rule span present" true (List.mem "rule:tc/2" names);
  check Alcotest.bool "escaping round-trips" true
    (List.mem "with \"quotes\"\nand newline" names);
  List.iter
    (fun e ->
      (match obj_field "ts" e with
       | Some (J_num ts) -> check Alcotest.bool "ts >= 0" true (ts >= 0.)
       | _ -> Alcotest.fail "missing ts");
      (match obj_field "dur" e with
       | Some (J_num d) -> check Alcotest.bool "dur >= 0" true (d >= 0.)
       | _ -> Alcotest.fail "missing dur"))
    complete;
  let rule_ev = List.find (fun e -> obj_field "name" e = Some (J_str "rule:tc/2")) complete in
  (match obj_field "args" rule_ev with
   | Some (J_obj [ ("fired", J_str "3") ]) -> ()
   | _ -> Alcotest.fail "span args lost");
  match obj_field "otherData" parsed with
  | Some (J_obj [ ("engine.facts.new", J_num 7.) ]) -> ()
  | _ -> Alcotest.fail "counters missing from otherData"

(* ------------------------------------------------------------------ *)
(* Engine instrumentation: deterministic counters on a fixed warded
   program (the ABL-1 program: existential invention + restricted
   chase) *)

let warded_src =
  {| emp(e0). emp(e1). emp(e2).
     mgr(X, M) :- emp(X).
     emp(M) :- mgr(X, M). |}

let run_warded () =
  V.Engine.run_program (V.Parser.parse_program warded_src)

let test_engine_counters_deterministic () =
  let _, s1 = run_warded () in
  let _, s2 = run_warded () in
  check Alcotest.int "new_facts" 6 s1.V.Engine.new_facts;
  check Alcotest.int "rounds" 2 s1.V.Engine.rounds;
  check (Alcotest.list Alcotest.int) "delta sizes" [ 6; 0 ]
    s1.V.Engine.delta_sizes;
  check Alcotest.int "nulls invented" 3 s1.V.Engine.nulls_invented;
  check Alcotest.int "chase hits" 3 s1.V.Engine.chase_hits;
  check Alcotest.int "chase misses" 3 s1.V.Engine.chase_misses;
  (match s1.V.Engine.per_rule with
   | [ mgr_rule; emp_rule ] ->
       check Alcotest.string "rule 0 label" "mgr/2" mgr_rule.V.Engine.rs_label;
       check Alcotest.string "rule 1 label" "emp/1" emp_rule.V.Engine.rs_label;
       check Alcotest.int "mgr firings" 3 mgr_rule.V.Engine.rs_firings;
       check Alcotest.int "emp firings" 3 emp_rule.V.Engine.rs_firings;
       check Alcotest.int "mgr nulls" 3 mgr_rule.V.Engine.rs_nulls;
       check Alcotest.int "emp nulls" 0 emp_rule.V.Engine.rs_nulls;
       check Alcotest.bool "mgr probed" true (mgr_rule.V.Engine.rs_probes > 0)
   | l -> Alcotest.failf "expected 2 per-rule entries, got %d" (List.length l));
  (* the second run must report identical counters (determinism) *)
  let strip s =
    List.map
      (fun r ->
        ( r.V.Engine.rs_id, r.V.Engine.rs_label, r.V.Engine.rs_firings,
          r.V.Engine.rs_matches, r.V.Engine.rs_probes, r.V.Engine.rs_nulls,
          r.V.Engine.rs_chase_hits, r.V.Engine.rs_chase_misses ))
      s.V.Engine.per_rule
  in
  check Alcotest.bool "per-rule deterministic" true (strip s1 = strip s2);
  check Alcotest.bool "delta sizes deterministic" true
    (s1.V.Engine.delta_sizes = s2.V.Engine.delta_sizes)

let test_engine_spans () =
  let tele = T.create () in
  let _ =
    V.Engine.run_program ~telemetry:tele (V.Parser.parse_program warded_src)
  in
  let spans = T.spans tele in
  let names = List.map (fun s -> s.T.sp_name) spans in
  check Alcotest.bool "engine.run span" true (List.mem "engine.run" names);
  check Alcotest.bool "rule span for mgr/2" true (List.mem "rule:mgr/2" names);
  check Alcotest.bool "rule span for emp/1" true (List.mem "rule:emp/1" names);
  check Alcotest.bool "round spans" true (List.mem "round" names);
  (* the engine.run span is the root of everything recorded here *)
  let root = List.find (fun s -> s.T.sp_name = "engine.run") spans in
  check (Alcotest.option Alcotest.int) "root" None root.T.sp_parent;
  List.iter
    (fun s ->
      if s.T.sp_id <> root.T.sp_id then
        check Alcotest.bool "nested under engine.run" true
          (s.T.sp_depth > root.T.sp_depth))
    spans;
  let counters = T.counters tele in
  check (Alcotest.option Alcotest.int) "facts counter" (Some 6)
    (List.assoc_opt "engine.facts.new" counters);
  check (Alcotest.option Alcotest.int) "nulls counter" (Some 3)
    (List.assoc_opt "engine.nulls.invented" counters)

let test_stats_merge () =
  let _, s = run_warded () in
  let m = V.Engine.merge_stats s s in
  check Alcotest.int "facts add" 12 m.V.Engine.new_facts;
  check Alcotest.int "rounds add" 4 m.V.Engine.rounds;
  check Alcotest.int "nulls add" 6 m.V.Engine.nulls_invented;
  check Alcotest.int "per-rule concat" 4 (List.length m.V.Engine.per_rule);
  check (Alcotest.list Alcotest.int) "delta concat" [ 6; 0; 6; 0 ]
    m.V.Engine.delta_sizes

let test_budget_error_context () =
  let opts =
    { V.Engine.default_options with
      V.Engine.restricted_chase = false;
      max_facts = 50 }
  in
  match
    Kgm_common.Kgm_error.guard (fun () ->
        V.Engine.run_program ~options:opts
          (V.Parser.parse_program warded_src))
  with
  | Ok _ -> Alcotest.fail "oblivious chase must exceed the budget"
  | Error e ->
      check Alcotest.bool "reason stage" true
        (e.Kgm_common.Kgm_error.stage = Kgm_common.Kgm_error.Reason);
      let ctx = e.Kgm_common.Kgm_error.context in
      check Alcotest.bool "rule in context" true
        (List.mem_assoc "rule" ctx);
      check Alcotest.bool "round in context" true
        (List.mem_assoc "round" ctx);
      (* plain rendering is unchanged; context is extra *)
      check Alcotest.bool "pp has no context" true
        (String.length (Kgm_common.Kgm_error.to_string e) > 0
         && not
              (String.contains (Kgm_common.Kgm_error.to_string e) '\n'))

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  go 0

let test_summary_renders () =
  let t = T.create () in
  T.with_span t "load" (fun () -> T.count t "facts");
  T.observe t "lat" 0.001;
  let s = T.summary t in
  List.iter
    (fun needle ->
      check Alcotest.bool ("summary mentions " ^ needle) true
        (contains_sub s needle))
    [ "load"; "facts"; "lat" ]

(* A long-lived collector keeps exact per-name totals of every span but
   only the last [max_spans] records: after 200k spans the exporters
   count them all, the records stay bounded, and the trace says how
   many it dropped *)
let test_span_records_bounded () =
  let t = T.create () in
  let n = 200_000 in
  T.with_span t "outer" (fun () ->
      let t0 = T.Clock.now () in
      for i = 0 to n - 1 do
        T.record_span t
          (if i mod 4 = 0 then "a" else "b")
          ~start:t0 ~stop:(t0 +. 0.5)
      done);
  check Alcotest.int "records kept" T.max_spans (List.length (T.spans t));
  check Alcotest.bool "at most 2^16" true (T.max_spans <= 1 lsl 16);
  check Alcotest.int "records dropped" (n + 1 - T.max_spans) (T.spans_dropped t);
  check Alcotest.bool "the last to close are kept" true
    (List.mem "outer" (List.map (fun s -> s.T.sp_name) (T.spans t)));
  let prom = T.prometheus t in
  List.iter
    (fun line ->
      check Alcotest.bool ("prometheus: " ^ line) true (contains_sub prom line))
    [ {|kgm_span_total{span="a"} 50000|};
      {|kgm_span_total{span="b"} 150000|};
      {|kgm_span_total{span="outer"} 1|};
      {|kgm_span_seconds_total{span="a"} 25000.000000000|};
      {|kgm_span_seconds_total{span="b"} 75000.000000000|} ];
  let at needle =
    let rec go i =
      if String.sub prom i (String.length needle) = needle then i else go (i + 1)
    in
    go 0
  in
  check Alcotest.bool "names in the order their first span started" true
    (at {|span="outer"|} < at {|span="a"|} && at {|span="a"|} < at {|span="b"|});
  let summary = T.summary t in
  check Alcotest.bool "summary counts every span" true
    (contains_sub summary "150000");
  let trace = parse_json (T.chrome_trace t) in
  check Alcotest.bool "the trace says how many it dropped" true
    (obj_field "spans_dropped" trace
    = Some (J_num (float_of_int (n + 1 - T.max_spans))));
  match obj_field "traceEvents" trace with
  | Some (J_arr events) ->
      check Alcotest.int "one event per record kept, and the process name"
        (T.max_spans + 1) (List.length events)
  | _ -> Alcotest.fail "no traceEvents"

let suite =
  [ Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span closed on exception" `Quick
      test_span_closed_on_exception;
    Alcotest.test_case "null collector no-op" `Quick test_null_collector_noop;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "chrome trace roundtrip" `Quick
      test_chrome_trace_roundtrip;
    Alcotest.test_case "engine counters deterministic" `Quick
      test_engine_counters_deterministic;
    Alcotest.test_case "engine spans" `Quick test_engine_spans;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    Alcotest.test_case "budget error context" `Quick
      test_budget_error_context;
    Alcotest.test_case "summary renders" `Quick test_summary_renders;
    Alcotest.test_case "span records bounded, totals exact" `Quick
      test_span_records_bounded ]
