(* Tests for the value-interning layer: the intern/resolve bijection on
   hostile values (NaN floats, nested Oids, lists carrying the SQL list
   escapes), worker-local scratch ids, and the invariants downstream of
   the dictionary — CSV import and SQL export are unchanged by
   interning, and the v3 snapshot format round-trips an interned
   database. *)

open Kgm_common
module V = Kgm_vadalog
module R = Kgm_resilience
module Sql = Kgm_relational.Sql

let check = Alcotest.check

(* Values chosen to stress every comparison edge the dictionary must
   get right: NaN (structural [=] never equates it with itself),
   negative zero (collapses onto 0. under Value.equal), Skolem Oids
   with separator bytes in their arguments, strings and nested lists
   carrying the [';'] / ['\'] bytes the SQL list codec escapes. *)
let hostiles =
  [ Value.Int 0;
    Value.Int (-42);
    Value.Int max_int;
    Value.Float 0.;
    Value.Float Float.nan;
    Value.Float Float.infinity;
    Value.Float Float.neg_infinity;
    Value.Float 1.5;
    Value.String "";
    Value.String "a;b";
    Value.String {|back\slash|};
    Value.String "quote\"comma,";
    Value.String "new\nline";
    Value.Bool true;
    Value.Bool false;
    Value.Date (2024, 2, 29);
    Value.Id (Oid.skolem "sk" [ "a;b"; {|c\d|} ]);
    (* labels far above anything the process's null counter will mint,
       so engine-invented nulls never collide with these EDB nulls *)
    Value.Null 900_000_003;
    Value.Null 900_000_004;
    Value.List [];
    Value.List [ Value.String ";"; Value.String {|\|} ];
    Value.List
      [ Value.List [ Value.Float Float.nan; Value.Id (Oid.skolem "sk" [ "x" ]) ];
        Value.Int 1 ] ]

let test_bijection () =
  let d = Intern.create () in
  let ids = List.map (fun v -> Intern.intern d v) hostiles in
  List.iter2
    (fun v id ->
      let tag fmt = Printf.sprintf "%s: %s" (Value.to_string v) fmt in
      check Alcotest.bool (tag "id in range") true
        (0 <= id && id < Intern.length d);
      check Alcotest.int (tag "re-intern is stable") id (Intern.intern d v);
      check Alcotest.(option int) (tag "find agrees") (Some id)
        (Intern.find d v);
      check Alcotest.bool (tag "resolve round-trips") true
        (Value.equal v (Intern.resolve d id));
      check Alcotest.bool (tag "null flag") (Value.is_null v)
        (Intern.is_null d id))
    hostiles ids;
  (* ids are dense: every distinct value got exactly one slot (the two
     zeros share one — Value.equal equates 0. and -0.) *)
  let distinct = List.sort_uniq compare ids in
  check Alcotest.int "dense ids" (List.length distinct) (Intern.length d);
  (* export mirrors the table in id order *)
  let ex = Intern.export d in
  check Alcotest.int "export length" (Intern.length d) (Array.length ex);
  List.iter2
    (fun v id ->
      check Alcotest.bool "export round-trips" true (Value.equal v ex.(id)))
    hostiles ids

let test_scratch () =
  let d = Intern.create () in
  ignore (Intern.intern d (Value.Int 0));
  let s = Intern.Scratch.create () in
  let ids = List.map (Intern.Scratch.id s) hostiles in
  List.iter2
    (fun v id ->
      let tag fmt = Printf.sprintf "%s: %s" (Value.to_string v) fmt in
      (* negative: never collides with a dictionary id *)
      check Alcotest.bool (tag "scratch id is negative") true (id < 0);
      check Alcotest.int (tag "scratch id is stable") id
        (Intern.Scratch.id s v);
      check Alcotest.bool (tag "scratch resolve round-trips") true
        (Value.equal v (Intern.Scratch.resolve s id)))
    hostiles ids;
  (* the scratch table never touched the dictionary *)
  check Alcotest.int "dictionary unchanged" 1 (Intern.length d)

(* One writer interning while a reader domain probes: the server's
   epochs share the master's dictionary, so reader domains call
   [find]/[resolve] on every query while [maintain] interns new
   constants and nulls. Interning 2^18 values crosses several resize
   thresholds of the id table; an unguarded [Hashtbl.find_opt] racing a
   resize misses keys that are present (the resize installs its empty
   bucket array before re-inserting). Every probe of a pre-interned key
   must still find its id, and every resolve its value. *)
let test_concurrent_find () =
  let d = Intern.create () in
  let n = 10_000 in
  let ids = Array.init n (fun i -> Intern.intern d (Value.Int i)) in
  let started = Atomic.make false and stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let misses = ref 0 and wrong = ref 0 and sweeps = ref 0 in
        Atomic.set started true;
        while not (Atomic.get stop) do
          for i = 0 to n - 1 do
            (match Intern.find d (Value.Int i) with
            | Some id when id = ids.(i) -> ()
            | Some _ -> incr wrong
            | None -> incr misses);
            if not (Value.equal (Intern.resolve d ids.(i)) (Value.Int i)) then
              incr wrong
          done;
          incr sweeps
        done;
        (!misses, !wrong, !sweeps))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  for i = n to n + (1 lsl 18) - 1 do
    ignore (Intern.intern d (Value.Int i))
  done;
  Atomic.set stop true;
  let misses, wrong, sweeps = Domain.join reader in
  check Alcotest.int "present keys never missed" 0 misses;
  check Alcotest.int "ids and values never wrong" 0 wrong;
  check Alcotest.bool "the reader ran" true (sweeps > 0);
  check Alcotest.int "every value interned once" (n + (1 lsl 18))
    (Intern.length d)

(* CSV rows load to the same boxed facts whether the database's
   dictionary is fresh or already populated with unrelated ids — the
   dictionary is invisible to the import path. *)
let test_csv_import_unchanged () =
  let rows = [ "1,hello"; "2.5,a;b"; "true,2024-02-29"; {|x\y,new|} ] in
  let load db =
    ignore (V.Io_sources.load_rows ~source:"test" db "p" rows);
    V.Database.facts db "p"
  in
  let fresh = load (V.Database.create ()) in
  let d = Intern.create () in
  List.iter (fun v -> ignore (Intern.intern d v)) hostiles;
  let shared = load (V.Database.create ~dict:d ()) in
  check Alcotest.int "row count" (List.length rows) (List.length fresh);
  List.iter2
    (fun a b ->
      check Alcotest.bool "facts equal across dictionaries" true
        (Array.for_all2 Value.equal a b))
    fresh shared;
  (* spot-check the parsed cells survived the interned store *)
  match fresh with
  | [| Value.Int 1; Value.String "hello" |] :: _ -> ()
  | _ -> Alcotest.fail "unexpected first row"

(* SQL rendering commutes with intern/resolve: exporting an interned
   value is exporting the value. *)
let test_sql_export_unchanged () =
  let d = Intern.create () in
  List.iter
    (fun v ->
      let v' = Intern.resolve d (Intern.intern d v) in
      check Alcotest.string
        ("sql_literal " ^ Value.to_string v)
        (Sql.sql_literal v) (Sql.sql_literal v'))
    hostiles;
  (* the list codec's escapes survive the round trip through the
     dictionary: decode (encode l) = map sql_literal l, interned *)
  let l = [ Value.String ";"; Value.String {|\|}; Value.String {|a\;b|} ] in
  let v' = Intern.resolve d (Intern.intern d (Value.List l)) in
  match v' with
  | Value.List l' ->
      check
        Alcotest.(list string)
        "list codec round-trips interned"
        (List.map Sql.sql_literal l)
        (Sql.decode_list (Sql.encode_list l'))
  | _ -> Alcotest.fail "resolve changed the constructor"

(* ------------------------------------------------------------------ *)
(* Snapshots. Since v3 they store facts as interned int arrays plus
   the dictionary; resuming from one must reproduce the uninterrupted run
   bit for bit even when the dictionary is full of hostile values. *)

let fresh_dir =
  let ctr = ref 0 in
  fun name ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "kgm_intern_%s_%d_%d" name (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".snap" then
          Sys.remove (Filename.concat d f))
      (Sys.readdir d);
    d

let jobs n = { V.Engine.default_options with V.Engine.jobs = n }

(* a recursive program with an existential, seeded with hostile values:
   the snapshot's dictionary must carry every one of them across *)
let hostile_src =
  {| copy(X, Y) :- h(X, Y).
     link(Y, Z) :- copy(X, Y).
     copy(A, B) :- link(A, B), copy(B, C). |}

let load_hostile db =
  let n = List.length hostiles in
  List.iteri
    (fun i v ->
      let w = List.nth hostiles ((i + 1) mod n) in
      ignore (V.Database.add db "h" [| v; w |]))
    hostiles

(* Test_parallel.canon compared with [=] would reject itself here:
   the hostile facts carry [Float nan], which structural equality never
   equates. Compare the canonical forms pointwise with Value.equal. *)
let canon_equal a b =
  List.equal
    (fun (p, fs) (q, gs) ->
      String.equal p q && List.equal (List.equal Value.equal) fs gs)
    (Test_parallel.canon a) (Test_parallel.canon b)

let run_hostile ?checkpoint ?resume_from n =
  let db = V.Database.create () in
  (* resumed runs take every fact, hostile seeds included, from the
     snapshot itself — only the fresh runs pre-load *)
  if resume_from = None then load_hostile db;
  let stats =
    V.Engine.run ~options:(jobs n) ?checkpoint ?resume_from
      (V.Parser.parse_program hostile_src)
      db
  in
  (db, stats)

let test_snapshot_v3_roundtrip () =
  let ref_db, _ = run_hostile 1 in
  let dir = fresh_dir "v3" in
  let ck = V.Engine.checkpoint ~every:1 dir in
  let db_ck, _ = run_hostile ~checkpoint:ck 1 in
  check Alcotest.bool "checkpointing changes nothing" true
    (canon_equal ref_db db_ck);
  let snaps = R.Snapshot.list ~dir ~kind:"chase-chase" in
  check Alcotest.bool "snapshots written" true (snaps <> []);
  List.iter
    (fun (_, path) ->
      List.iter
        (fun n ->
          let db_r, _ = run_hostile ~resume_from:path n in
          check Alcotest.bool
            (Printf.sprintf "resume (jobs=%d) equals fresh" n)
            true (canon_equal ref_db db_r))
        [ 1; 2 ])
    snaps

let suite =
  [ ("intern/resolve bijection on hostile values", `Quick, test_bijection);
    ("scratch ids are negative, stable, isolated", `Quick, test_scratch);
    ("find/resolve never miss while one writer interns", `Quick,
     test_concurrent_find);
    ("csv import unchanged by interning", `Quick, test_csv_import_unchanged);
    ("sql export unchanged by interning", `Quick, test_sql_export_unchanged);
    ("v3 snapshot round-trips an interned db", `Quick,
     test_snapshot_v3_roundtrip) ]
