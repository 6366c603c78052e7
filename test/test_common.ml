(* Unit and property tests for Kgm_common: values, OIDs, naming. *)

open Kgm_common

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Value *)

let value_gen : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    sized (fun _ ->
        oneof
          [ map Value.int int;
            map Value.float (float_bound_inclusive 1e6);
            map Value.string string_printable;
            map Value.bool bool;
            (let* y = int_range 1900 2100 in
             let* m = int_range 1 12 in
             let* d = int_range 1 28 in
             return (Value.date y m d));
            map (fun i -> Value.Null i) small_nat ]))

let value_arb = QCheck.make ~print:Value.to_string value_gen

let test_value_compare_refl () =
  List.iter
    (fun v -> check Alcotest.int "refl" 0 (Value.compare v v))
    [ Value.int 3; Value.float 2.5; Value.string "x"; Value.bool true;
      Value.date 2022 3 29; Value.Null 7;
      Value.List [ Value.int 1; Value.string "a" ] ]

let test_value_order_across_kinds () =
  (* distinct constructors are totally ordered, deterministically *)
  let vs =
    [ Value.int 1; Value.float 1.; Value.string "1"; Value.bool true;
      Value.date 2000 1 1; Value.Null 1 ]
  in
  let sorted = List.sort Value.compare vs in
  check Alcotest.int "same length" (List.length vs) (List.length sorted);
  check Alcotest.bool "stable" true
    (List.sort Value.compare sorted = sorted)

let test_float_coercion () =
  check (Alcotest.option (Alcotest.float 1e-9)) "int as float" (Some 3.)
    (Value.as_float (Value.int 3));
  check (Alcotest.option (Alcotest.float 1e-9)) "float" (Some 2.5)
    (Value.as_float (Value.float 2.5));
  check (Alcotest.option (Alcotest.float 1e-9)) "string" None
    (Value.as_float (Value.string "x"))

let test_conforms () =
  check Alcotest.bool "int ok" true (Value.conforms Value.TInt (Value.int 1));
  check Alcotest.bool "int as float ok" true
    (Value.conforms Value.TFloat (Value.int 1));
  check Alcotest.bool "string not int" false
    (Value.conforms Value.TInt (Value.string "a"));
  check Alcotest.bool "null conforms anywhere" true
    (Value.conforms Value.TDate (Value.Null 3));
  check Alcotest.bool "any accepts" true
    (Value.conforms Value.TAny (Value.bool false))

let test_parse () =
  check Alcotest.bool "int" true (Value.parse Value.TInt "42" = Some (Value.int 42));
  check Alcotest.bool "float" true
    (Value.parse Value.TFloat "1.5" = Some (Value.float 1.5));
  check Alcotest.bool "date" true
    (Value.parse Value.TDate "2022-03-29" = Some (Value.date 2022 3 29));
  check Alcotest.bool "bad date" true (Value.parse Value.TDate "2022-13-01" = None);
  check Alcotest.bool "bool" true (Value.parse Value.TBool "true" = Some (Value.bool true));
  check Alcotest.bool "any int" true (Value.parse Value.TAny "7" = Some (Value.int 7));
  check Alcotest.bool "any string" true
    (Value.parse Value.TAny "x y" = Some (Value.string "x y"))

let test_ty_roundtrip () =
  List.iter
    (fun ty ->
      check Alcotest.bool "ty roundtrip" true
        (Value.ty_of_string (Value.ty_to_string ty) = Some ty))
    [ Value.TInt; Value.TFloat; Value.TString; Value.TBool; Value.TDate;
      Value.TId; Value.TAny ]

let prop_compare_antisym =
  QCheck.Test.make ~name:"Value.compare antisymmetric" ~count:300
    (QCheck.pair value_arb value_arb)
    (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let prop_compare_trans =
  QCheck.Test.make ~name:"Value.compare transitive" ~count:300
    (QCheck.triple value_arb value_arb value_arb)
    (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0
      | _ -> false)

let prop_equal_hash =
  QCheck.Test.make ~name:"Value equal implies same hash" ~count:300
    (QCheck.pair value_arb value_arb)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* ------------------------------------------------------------------ *)
(* Oid *)

let test_oid_fresh_distinct () =
  let g = Oid.make_gen () in
  let a = Oid.fresh g and b = Oid.fresh g in
  check Alcotest.bool "distinct" false (Oid.equal a b);
  check Alcotest.int "counter" 2 (Oid.counter_value g)

let test_oid_named_hint_cosmetic () =
  let g = Oid.make_gen () in
  let a = Oid.fresh_named g "hint" in
  let b = Oid.fresh g in
  check Alcotest.bool "hint does not equal later oid" false (Oid.equal a b);
  check Alcotest.bool "printed hint" true
    (String.length (Oid.to_string a) > String.length "#0")

let test_skolem_deterministic () =
  let a = Oid.skolem "f" [ "x"; "y" ] in
  let b = Oid.skolem "f" [ "x"; "y" ] in
  check Alcotest.bool "same" true (Oid.equal a b);
  check Alcotest.bool "hash same" true (Oid.hash a = Oid.hash b)

let test_skolem_injective () =
  check Alcotest.bool "args differ" false
    (Oid.equal (Oid.skolem "f" [ "x" ]) (Oid.skolem "f" [ "y" ]));
  check Alcotest.bool "functors range-disjoint" false
    (Oid.equal (Oid.skolem "f" [ "x" ]) (Oid.skolem "g" [ "x" ]));
  check Alcotest.bool "fresh vs skolem disjoint" false
    (Oid.equal (Oid.fresh (Oid.make_gen ())) (Oid.skolem "f" []))

let test_skolem_is_skolem () =
  check Alcotest.bool "skolem" true (Oid.is_skolem (Oid.skolem "f" []));
  check Alcotest.bool "fresh" false (Oid.is_skolem (Oid.fresh (Oid.make_gen ())))

(* ------------------------------------------------------------------ *)
(* Names *)

let test_pascal () =
  check Alcotest.bool "ok" true (Names.is_pascal_case "PublicListedCompany");
  check Alcotest.bool "lower start" false (Names.is_pascal_case "person");
  check Alcotest.bool "underscore" false (Names.is_pascal_case "Public_Listed");
  check Alcotest.bool "empty" false (Names.is_pascal_case "")

let test_upper () =
  check Alcotest.bool "ok" true (Names.is_upper_case "BELONGS_TO_FAMILY");
  check Alcotest.bool "digits ok" true (Names.is_upper_case "OWNS_20");
  check Alcotest.bool "lower" false (Names.is_upper_case "belongs_to");
  check Alcotest.bool "mixed" false (Names.is_upper_case "BelongsTo")

let test_camel () =
  check Alcotest.bool "ok" true (Names.is_camel_case "numberOfStakeholders");
  check Alcotest.bool "upper start" false (Names.is_camel_case "Number");
  check Alcotest.bool "underscore" false (Names.is_camel_case "number_of")

let test_snake () =
  check Alcotest.string "snake" "public_listed_company"
    (Names.to_snake_case "PublicListedCompany");
  check Alcotest.string "pascal" "PublicListedCompany"
    (Names.to_pascal_case "public_listed_company");
  check Alcotest.string "single" "person" (Names.to_snake_case "Person")

let test_sanitize () =
  check Alcotest.string "spaces" "a_b" (Names.sanitize_identifier "a b");
  check Alcotest.string "leading digit" "x1a" (Names.sanitize_identifier "1a");
  check Alcotest.string "empty" "x" (Names.sanitize_identifier "");
  check Alcotest.string "clean" "ok_name" (Names.sanitize_identifier "ok_name")

(* The renderer, pinned on the printed forms [Value.to_string] gave
   when it still printed through [Format]: every constructor, the float
   specials, escaped strings, padded and negative dates, fresh, hinted
   and skolem oids, nested lists *)
let test_value_render_pinned () =
  let g = Oid.make_gen () in
  let o0 = Oid.fresh g in
  let o1 = Oid.fresh_named g "hint" in
  let cases =
    Value.
      [ (Int 0, "0"); (Int (-42), "-42");
        (Int max_int, "4611686018427387903");
        (Int min_int, "-4611686018427387904");
        (Float 0.6, "0.6"); (Float 0., "0"); (Float (-0.), "-0");
        (Float nan, "nan"); (Float (-.nan), "-nan");
        (Float infinity, "inf"); (Float neg_infinity, "-inf");
        (Float 1e-5, "1e-05"); (Float 123456789., "1.23457e+08");
        (Float 1e21, "1e+21"); (Float 2.5, "2.5"); (Float 100., "100");
        (String "", {|""|}); (String "acme", {|"acme"|});
        (String "say \"hi\"\\ok", {|"say \"hi\"\\ok"|});
        (String "tab\tnl\ncr\r", {|"tab\tnl\ncr\r"|});
        (String "\001\127", {|"\001\127"|});
        (String "caf\xc3\xa9", {|"caf\195\169"|});
        (Bool true, "true"); (Bool false, "false");
        (Date (2022, 3, 29), "2022-03-29"); (Date (5, 1, 2), "0005-01-02");
        (Date (-5, 1, 2), "-005-01-02"); (Date (12345, 12, 31), "12345-12-31");
        (Id o0, "#0"); (Id o1, "#1:hint");
        (Id (Oid.skolem "f" [ "a"; "b" ]), "sk_f(a,b)");
        (Id (Oid.skolem "g" []), "sk_g()");
        (Null 0, "_:n0"); (Null 7, "_:n7"); (List [], "[]");
        (List [ Int 1; String "a" ], {|[1;"a"]|});
        ( List [ List [ Float 0.5; Null 2 ]; Id o1; Date (1999, 12, 1) ],
          "[[0.5;_:n2];#1:hint;1999-12-01]" ) ]
  in
  List.iter
    (fun (v, want) ->
      check Alcotest.string ("to_string " ^ want) want (Value.to_string v);
      check Alcotest.string ("pp " ^ want) want (Format.asprintf "%a" Value.pp v);
      let buf = Buffer.create 8 in
      Buffer.add_string buf "p(";
      Value.to_buffer buf v;
      check Alcotest.string ("to_buffer appends " ^ want)
        ("p(" ^ want) (Buffer.contents buf))
    cases

(* ------------------------------------------------------------------ *)
(* Kgm_error *)

let test_error_pp () =
  (try Kgm_error.parse_error "bad %d" 42
   with Kgm_error.Error e ->
     check Alcotest.string "pp" "[parse] bad 42" (Kgm_error.to_string e));
  (match Kgm_error.guard (fun () -> Kgm_error.reason_error "boom") with
   | Error e -> check Alcotest.string "guard" "[reason] boom" (Kgm_error.to_string e)
   | Ok _ -> Alcotest.fail "expected error")

let suite =
  [ ("value compare reflexive", `Quick, test_value_compare_refl);
    ("value order across kinds", `Quick, test_value_order_across_kinds);
    ("value float coercion", `Quick, test_float_coercion);
    ("value conforms", `Quick, test_conforms);
    ("value parse", `Quick, test_parse);
    ("value ty roundtrip", `Quick, test_ty_roundtrip);
    ("value render pinned", `Quick, test_value_render_pinned);
    qtest prop_compare_antisym;
    qtest prop_compare_trans;
    qtest prop_equal_hash;
    ("oid fresh distinct", `Quick, test_oid_fresh_distinct);
    ("oid hint cosmetic", `Quick, test_oid_named_hint_cosmetic);
    ("skolem deterministic", `Quick, test_skolem_deterministic);
    ("skolem injective and disjoint", `Quick, test_skolem_injective);
    ("skolem detection", `Quick, test_skolem_is_skolem);
    ("names pascal", `Quick, test_pascal);
    ("names upper", `Quick, test_upper);
    ("names camel", `Quick, test_camel);
    ("names snake/pascal", `Quick, test_snake);
    ("names sanitize", `Quick, test_sanitize);
    ("error formatting", `Quick, test_error_pp) ]
