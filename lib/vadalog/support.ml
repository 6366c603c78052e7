(* Derivation support: the full multiset of derivations — the one
   record that both explains a fact ([Engine.explain_tree] renders its
   first derivation) and maintains it. Delete-and-rederive needs every
   derivation (a fact whose first derivation dies may survive through
   an alternative one), the nulls each firing invented (a null's
   creating derivation dying retracts the null and everything carrying
   it), and the restricted-chase checks that SUPPRESSED an invention
   (when the homomorphic image that satisfied the check dies, the
   suppressed firing must be re-attempted — it may now invent). The
   engine records, checkpoints absorb, explanation and the overdeletion
   cone read, and maintenance prunes, all through this module. *)

open Kgm_common

(* keyed consistently with Value.equal/Value.hash, like the fact store *)
module Tbl = Hashtbl.Make (struct
  type t = string * Value.t list

  let equal (p, k) (p', k') = String.equal p p' && List.equal Value.equal k k'
  let hash (p, k) = Hashtbl.hash (p, List.map Value.hash k)
end)

let compare_fact (a : Database.fact) (b : Database.fact) =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let n = Array.length a in
    let rec go i =
      if i >= n then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let parent_equal (p, (f : Database.fact)) (p', f') =
  String.equal p p'
  && Array.length f = Array.length f'
  && Array.for_all2 Value.equal f f'

let compare_parent (p, f) (p', f') =
  let c = String.compare p p' in
  if c <> 0 then c else compare_fact f f'

(* parents are stored sorted and dedup'd: the trail order differs
   between the sequential and the worker evaluation paths, and DRed
   only needs the SET of body facts a firing consumed *)
let canonical_parents ps = List.sort_uniq compare_parent ps

let key pred (fact : Database.fact) = (pred, Array.to_list fact)

type entry = {
  se_rule : int;
  se_parents : (string * Database.fact) list;
  se_nulls : int list;
}

type suppressed_firing = {
  sf_rule : int;
  sf_parents : (string * Database.fact) list;  (* canonical order *)
  sf_image : (string * Database.fact) list;
      (* the homomorphic image that satisfied the head check *)
}

type t = {
  sup_entries : entry list ref Tbl.t;
      (* derived fact -> its derivations, most recent first *)
  sup_children : (string * Database.fact) list ref Tbl.t;
      (* body fact -> head facts with an entry consuming it (the
         reverse edges the overdeletion cone walks), each at most once
         per such entry — consumers dedup. [record] appends, [prune]
         filters the lists of the parents of every entry it removes *)
  sup_null_facts : (int, (string * Database.fact) list ref) Hashtbl.t;
      (* null id -> facts whose tuple carries the null *)
  mutable sup_inventive : bool;
      (* some recorded derivation invented a null: until then the cone
         has no null to put at risk and skips looking *)
  mutable sup_suppressed : suppressed_firing list;
      (* reverse recording order *)
  sup_suppressed_keys :
    (int * (string * Value.t list) list, unit) Hashtbl.t;
}

let create () =
  { sup_entries = Tbl.create 1024;
    sup_children = Tbl.create 1024;
    sup_null_facts = Hashtbl.create 64;
    sup_inventive = false;
    sup_suppressed = [];
    sup_suppressed_keys = Hashtbl.create 64 }

let rec value_nulls acc = function
  | Value.Null k -> k :: acc
  | Value.List l -> List.fold_left value_nulls acc l
  | _ -> acc

let fact_nulls (f : Database.fact) =
  Array.fold_left value_nulls [] f |> List.sort_uniq Int.compare

let listed find tbl k = match find tbl k with Some r -> !r | None -> []
let entries t pred fact = listed Tbl.find_opt t.sup_entries (key pred fact)
let children t pred fact = listed Tbl.find_opt t.sup_children (key pred fact)
let carriers t n = listed Hashtbl.find_opt t.sup_null_facts n

let invented t = t.sup_inventive

let record t ~rule_id ~parents ~nulls pred fact =
  let parents = canonical_parents parents in
  let k = key pred fact in
  let entries =
    match Tbl.find_opt t.sup_entries k with
    | Some r -> r
    | None ->
        let r = ref [] in
        Tbl.add t.sup_entries k r;
        r
  in
  let dup =
    List.exists
      (fun e ->
        e.se_rule = rule_id && List.equal parent_equal e.se_parents parents)
      !entries
  in
  if not dup then begin
    entries :=
      { se_rule = rule_id; se_parents = parents; se_nulls = nulls } :: !entries;
    List.iter
      (fun (pp, pf) ->
        let ck = key pp pf in
        match Tbl.find_opt t.sup_children ck with
        | Some r -> r := (pred, fact) :: !r
        | None -> Tbl.add t.sup_children ck (ref [ (pred, fact) ]))
      parents;
    if nulls <> [] then t.sup_inventive <- true
  end

(* called once per NEW fact: index which nulls its tuple carries *)
let note_fact t pred fact =
  List.iter
    (fun n ->
      match Hashtbl.find_opt t.sup_null_facts n with
      | Some r -> r := (pred, fact) :: !r
      | None -> Hashtbl.add t.sup_null_facts n (ref [ (pred, fact) ]))
    (fact_nulls fact)

let suppressed_key rule_id parents =
  (rule_id, List.map (fun (p, f) -> (p, Array.to_list f)) parents)

let record_suppressed t ~rule_id ~parents ~image =
  let parents = canonical_parents parents in
  let key = suppressed_key rule_id parents in
  if not (Hashtbl.mem t.sup_suppressed_keys key) then begin
    Hashtbl.add t.sup_suppressed_keys key ();
    t.sup_suppressed <-
      { sf_rule = rule_id; sf_parents = parents;
        sf_image = canonical_parents image }
      :: t.sup_suppressed
  end

(* Entry lists and recording order are preserved; duplicates are
   impossible when [into] is empty and harmless otherwise ([record]
   dedups, and consumers of children lists dedup on their side). *)
let absorb ~into src =
  Tbl.iter
    (fun (pred, vals) entries ->
      List.iter
        (fun e ->
          record into ~rule_id:e.se_rule ~parents:e.se_parents
            ~nulls:e.se_nulls pred (Array.of_list vals))
        (List.rev !entries))
    src.sup_entries;
  Hashtbl.iter
    (fun n facts ->
      match Hashtbl.find_opt into.sup_null_facts n with
      | Some r -> r := !facts @ !r
      | None -> Hashtbl.add into.sup_null_facts n (ref !facts))
    src.sup_null_facts;
  List.iter
    (fun sf ->
      record_suppressed into ~rule_id:sf.sf_rule ~parents:sf.sf_parents
        ~image:sf.sf_image)
    (List.rev src.sup_suppressed)

let prune t ~dead dead_facts ~nulls ~void ~kept =
  (* Every entry removed here — a dead fact's, a survivor's through a
     dead parent, a void one — leaves the children lists of its
     surviving parents. Each parent touched is filtered once, at the
     end: it keeps a child while an entry of the child still consumes
     it, listed once. So no list holds a deleted fact, or one no entry
     of which consumes the parent, a re-derivation appends to a list
     the last prune touching it cleaned, and a hub parent is filtered
     once however many of its children lost entries. *)
  let parents = Tbl.create 16 in
  let touch e =
    List.iter
      (fun ((q, g) as pf) -> if not (dead pf) then Tbl.replace parents (key q g) ())
      e.se_parents
  in
  let drop (p, f) doomed =
    Option.iter
      (fun r ->
        match List.partition doomed !r with
        | [], _ -> ()
        | gone, live ->
            List.iter touch gone;
            r := live)
      (Tbl.find_opt t.sup_entries (key p f))
  in
  List.iter
    (fun (p, f) ->
      let k = key p f in
      List.iter touch (entries t p f);
      Tbl.remove t.sup_entries k;
      List.iter
        (fun c ->
          if not (dead c) then drop c (fun e -> List.exists dead e.se_parents))
        (children t p f);
      Tbl.remove t.sup_children k)
    dead_facts;
  List.iter (fun c -> drop c (fun e -> void e.se_rule)) kept;
  Tbl.iter
    (fun ((q, vs) as k) () ->
      Option.iter
        (fun r ->
          let parent = (q, Array.of_list vs) and seen = Tbl.create 8 in
          let consumes (p, f) =
            let kc = key p f in
            (not (Tbl.mem seen kc))
            && List.exists
                 (fun e -> List.exists (parent_equal parent) e.se_parents)
                 (listed Tbl.find_opt t.sup_entries kc)
            && (Tbl.add seen kc ();
                true)
          in
          match List.filter consumes !r with
          | [] -> Tbl.remove t.sup_children k
          | live -> r := live)
        (Tbl.find_opt t.sup_children k))
    parents;
  List.iter (Hashtbl.remove t.sup_null_facts) nulls

let sweep_suppressed t ~dead ~void =
  let refire = ref [] in
  t.sup_suppressed <-
    List.filter
      (fun sf ->
        let live =
          (not (void sf.sf_rule)) && not (List.exists dead sf.sf_parents)
        in
        let again = live && List.exists dead sf.sf_image in
        (* walked newest first, so [refire] ends up in recording order *)
        if again then refire := sf.sf_parents :: !refire;
        let keep = live && not again in
        if not keep then
          Hashtbl.remove t.sup_suppressed_keys
            (suppressed_key sf.sf_rule sf.sf_parents);
        keep)
      t.sup_suppressed;
  !refire
