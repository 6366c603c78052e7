(* Generated update streams for the incremental-maintenance properties,
   and the list model of the EDB they are checked against.

   Four small programs: transitive closure over two EDB predicates,
   the Ex. 4.2 company-control rule (a monotonic sum, maintained by
   counting), a negation stratum (re-derived wholesale) and two
   existential rules over one head (labeled nulls: a retraction kills
   a null and what carries it, and re-fires the firing the other rule
   had suppressed). A stream is
   a list of 1-4-line +/- batches over ~6 constants, among them
   duplicate lines, a fact retracted and re-inserted in one batch, and
   retractions of derived and of absent facts; some batches carry a
   seeded fault spec for [db_insert] or [worker]. *)

open Kgm_common

type program = {
  name : string;
  src : string;  (* rules and the initial EDB *)
  edb : (string * Value.t array) QCheck.Gen.t;  (* an EDB fact *)
  derived : (string * Value.t array) QCheck.Gen.t;  (* a derived fact *)
}

let const = QCheck.Gen.map (fun c -> Value.String c) (QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "e"; "f" ])

let fact pred arity =
  QCheck.Gen.map
    (fun args -> (pred, Array.of_list args))
    (QCheck.Gen.list_repeat arity const)

let transitive =
  { name = "transitive closure";
    src =
      {| edge(a, b). edge(b, c). edge(c, d). link(d, e).
         reach(X, Y) :- edge(X, Y).
         reach(X, Y) :- link(X, Y).
         reach(X, Z) :- reach(X, Y), edge(Y, Z). |};
    edb = QCheck.Gen.oneof [ fact "edge" 2; fact "link" 2 ];
    derived = fact "reach" 2 }

let control =
  { name = "company control";
    src =
      {| company(a). company(b). company(c). company(d).
         own(a, b, 0.6). own(a, c, 0.3). own(b, c, 0.3).
         controls(X, X) :- company(X).
         controls(X, Y) :- controls(X, Z), own(Z, Y, W),
                           V = sum(W, <Z>), V > 0.5. |};
    edb =
      QCheck.Gen.(
        oneof
          [ fact "company" 1;
            map3
              (fun x y w -> ("own", [| x; y; Value.Float w |]))
              const const
              (oneofl [ 0.2; 0.3; 0.6 ]) ]);
    derived = fact "controls" 2 }

let negation =
  { name = "negation stratum";
    src =
      {| node(a). node(b). node(c). node(d).
         edge(a, b). next(c, d). next(d, a).
         linked(X) :- edge(X, Y).
         linked(Y) :- edge(X, Y).
         lonely(X) :- node(X), not linked(X).
         tour(X, Y) :- lonely(X), next(X, Y).
         tour(X, Z) :- tour(X, Y), next(Y, Z). |};
    edb = QCheck.Gen.oneof [ fact "node" 1; fact "edge" 2; fact "next" 2 ];
    derived = QCheck.Gen.oneof [ fact "linked" 1; fact "lonely" 1; fact "tour" 2 ] }

(* No labeled null reaches the body of an existential rule: the
   restricted-chase check matches body nulls up to renaming, so which
   carrier a re-chase picks as the image depends on order, and the two
   stores may then legitimately differ. *)
let nulls =
  { name = "labeled nulls";
    src =
      {| person(a). person(b). staff(b). staff(c).
         mgr(X, M) :- person(X).
         mgr(X, M) :- staff(X).
         boss(M) :- mgr(X, M). |};
    edb = QCheck.Gen.oneof [ fact "person" 1; fact "staff" 1 ];
    derived = QCheck.Gen.oneof [ fact "mgr" 2; fact "boss" 1 ] }

let programs = [ transitive; control; negation; nulls ]

type line = [ `Ins | `Ret ] * (string * Value.t array)

let line prog : line QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [ (4, map (fun f -> (`Ins, f)) prog.edb);
        (3, map (fun f -> (`Ret, f)) prog.edb);
        (1, map (fun f -> (`Ret, f)) prog.derived) ])

let batch prog : line list QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [ (3, list_size (int_range 1 4) (line prog));
        (* a duplicate line *)
        ( 1,
          let* lines = list_size (int_range 1 3) (line prog) in
          let* i = int_bound (List.length lines - 1) in
          return (lines @ [ List.nth lines i ]) );
        (* a fact retracted and re-inserted in one batch *)
        ( 1,
          let* lines = list_size (int_range 0 2) (line prog) in
          let* f = prog.edb in
          return (lines @ [ (`Ret, f); (`Ins, f) ]) ) ])

(* a fault spec for one batch: mostly none, else a seeded rate at one
   of the two sites a repair passes *)
let fault : string option QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [ (5, return None);
        ( 1,
          map2
            (fun rate seed -> Some (Printf.sprintf "db_insert:%g,seed=%d" rate seed))
            (oneofl [ 0.1; 0.3 ]) (int_bound 999) );
        ( 1,
          map2
            (fun rate seed -> Some (Printf.sprintf "worker:%g,seed=%d" rate seed))
            (oneofl [ 0.5; 0.8 ]) (int_bound 999) ) ])

let step prog = QCheck.Gen.pair (batch prog) fault

let stream prog = QCheck.Gen.list_size (QCheck.Gen.int_range 1 8) (step prog)

let show_fact (p, f) =
  Printf.sprintf "%s(%s)" p
    (String.concat ", " (Array.to_list (Array.map Value.to_string f)))

(* a batch as [/update] text *)
let text (lines : line list) =
  String.concat ""
    (List.map
       (fun (sign, pf) ->
         Printf.sprintf "%s%s.\n" (if sign = `Ins then "+" else "-") (show_fact pf))
       lines)

let show_stream steps =
  String.concat " | "
    (List.map
       (fun (lines, fault) ->
         String.concat " " (String.split_on_char '\n' (String.trim (text lines)))
         ^ match fault with Some s -> " [" ^ s ^ "]" | None -> "")
       steps)

(* ---- the model ---- *)

(* The EDB as a list in load order, each fact once. A batch's
   retractions of EDB facts go first, then its inserts of facts not in
   the EDB, each at the end: a fact retracted and re-inserted moves to
   its latest insertion. Returns the new EDB and the number of distinct
   facts retracted and inserted. *)
let same (p, f) (q, g) =
  String.equal p q
  && Array.length f = Array.length g
  && Array.for_all2 Value.equal f g

let apply edb (inserts, retracts) =
  let kept = List.filter (fun pf -> not (List.exists (same pf) retracts)) edb in
  let edb' =
    List.fold_left
      (fun acc pf -> if List.exists (same pf) acc then acc else acc @ [ pf ])
      kept inserts
  in
  (edb', List.length edb - List.length kept, List.length edb' - List.length kept)

(* facts grouped by predicate, predicates sorted, each predicate's facts
   in their order: the order a per-predicate store lists them in *)
let grouped facts =
  List.stable_sort (fun (p, _) (q, _) -> String.compare p q) facts
  |> List.map show_fact

let initial_edb (program : Kgm_vadalog.Rule.program) =
  List.map (fun (p, args) -> (p, Array.of_list args)) program.Kgm_vadalog.Rule.facts

(* a from-scratch chase of [edb], with fault injection off *)
let rechase ~options (program : Kgm_vadalog.Rule.program) edb =
  Kgm_resilience.Faults.with_spec "" (fun () ->
      let db = Kgm_vadalog.Database.create () in
      List.iter (fun (p, f) -> ignore (Kgm_vadalog.Database.add db p f)) edb;
      ignore
        (Kgm_vadalog.Engine.run ~options
           { program with Kgm_vadalog.Rule.facts = [] }
           db);
      db)

(* [f] under [fault]'s spec; with none, under whatever the suite runs
   with *)
let under fault f =
  match fault with Some spec -> Kgm_resilience.Faults.with_spec spec f | None -> f ()
