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
   cone read, and maintenance prunes, all through this module.

   Everything here is interned: a fact is its predicate and the store's
   own id array, a null is its id in the dictionary the support shares
   with the store. Only [compare_value] looks values up, for the orders
   a reader sees. *)

open Kgm_common

type fact = string * Database.ifact

let same_ids (a : Database.ifact) (b : Database.ifact) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let fact_equal (p, f) (p', f') = String.equal p p' && same_ids f f'
let hash_fact (p, f) = Slot_table.mix (Hashtbl.hash p) (Slot_table.hash_fact f)

module Tbl = Hashtbl.Make (struct
  type t = fact

  let equal = fact_equal
  let hash = hash_fact
end)

let compare_ids (a : Database.ifact) (b : Database.ifact) =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let n = Array.length a in
    let rec go i =
      if i >= n then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let compare_fact (p, f) (p', f') =
  let c = String.compare p p' in
  if c <> 0 then c else compare_ids f f'

(* parents are stored sorted and dedup'd: the trail order differs
   between the sequential and the worker evaluation paths, and DRed
   only needs the SET of body facts a firing consumed *)
let canonical_parents ps = List.sort_uniq compare_fact ps

type entry = {
  se_rule : int;
  se_parents : fact list;
  se_nulls : int list;
}

type suppressed_firing = {
  sf_rule : int;
  sf_parents : fact list;  (* canonical order *)
  sf_image : fact list;  (* the homomorphic image that satisfied the check *)
}

(* a suppressed firing is recorded once per rule and parents *)
module Firings = Hashtbl.Make (struct
  type t = int * fact list

  let equal (r, ps) (r', ps') = r = r' && List.equal fact_equal ps ps'

  let hash (r, ps) =
    List.fold_left (fun h pf -> Slot_table.mix h (hash_fact pf)) r ps
end)

type t = {
  dict : Intern.t;
  sup_entries : entry list ref Tbl.t;
      (* derived fact -> its derivations, most recent first *)
  sup_children : fact list ref Tbl.t;
      (* body fact -> head facts with an entry consuming it (the
         reverse edges the overdeletion cone walks), each at most once
         per such entry — consumers dedup. [record] appends, [prune]
         filters the lists of the parents of every entry it removes *)
  sup_null_facts : (int, fact list ref) Hashtbl.t;
      (* null id -> facts whose tuple carries the null *)
  mutable sup_inventive : bool;
      (* some recorded derivation invented a null: until then the cone
         has no null to put at risk and skips looking *)
  mutable sup_suppressed : suppressed_firing list;
      (* reverse recording order *)
  sup_suppressed_keys : unit Firings.t;
}

let create dict =
  { dict;
    sup_entries = Tbl.create 1024;
    sup_children = Tbl.create 1024;
    sup_null_facts = Hashtbl.create 64;
    sup_inventive = false;
    sup_suppressed = [];
    sup_suppressed_keys = Firings.create 64 }

let dict t = t.dict

(* Value order, read through the dictionary: ids that differ name
   values that differ, so only those are looked up *)
let compare_value t (p, (f : Database.ifact)) (p', (f' : Database.ifact)) =
  let c = String.compare p p' in
  if c <> 0 then c
  else
    let c = Int.compare (Array.length f) (Array.length f') in
    if c <> 0 then c
    else
      let n = Array.length f in
      let rec go i =
        if i >= n then 0
        else if f.(i) = f'.(i) then go (i + 1)
        else
          let c =
            Value.compare (Intern.resolve t.dict f.(i)) (Intern.resolve t.dict f'.(i))
          in
          if c <> 0 then c else go (i + 1)
      in
      go 0

(* a null inside a list value has its own id: it was interned when it
   was invented *)
let rec list_nulls t acc = function
  | [] -> acc
  | Value.Null _ as v :: rest -> (
      match Intern.find t.dict v with
      | Some id -> list_nulls t (id :: acc) rest
      | None -> list_nulls t acc rest)
  | Value.List l :: rest -> list_nulls t (list_nulls t acc l) rest
  | _ :: rest -> list_nulls t acc rest

let fact_nulls t (f : Database.ifact) =
  let acc =
    Array.fold_left
      (fun acc id ->
        match Intern.resolve t.dict id with
        | Value.Null _ -> id :: acc
        | Value.List l -> list_nulls t acc l
        | _ -> acc)
      [] f
  in
  match acc with [] | [ _ ] -> acc | _ -> List.sort_uniq Int.compare acc

let listed find tbl k = match find tbl k with Some r -> !r | None -> []
let entries t pred fact = listed Tbl.find_opt t.sup_entries (pred, fact)
let children t pred fact = listed Tbl.find_opt t.sup_children (pred, fact)
let carriers t n = listed Hashtbl.find_opt t.sup_null_facts n

let invented t = t.sup_inventive

let record t ~rule_id ~parents ~nulls pred fact =
  let parents = canonical_parents parents in
  let k = (pred, fact) in
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
      (fun e -> e.se_rule = rule_id && List.equal fact_equal e.se_parents parents)
      !entries
  in
  if not dup then begin
    entries :=
      { se_rule = rule_id; se_parents = parents; se_nulls = nulls } :: !entries;
    List.iter
      (fun pf ->
        match Tbl.find_opt t.sup_children pf with
        | Some r -> r := k :: !r
        | None -> Tbl.add t.sup_children pf (ref [ k ]))
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
    (fact_nulls t fact)

let record_suppressed t ~rule_id ~parents ~image =
  let parents = canonical_parents parents in
  let key = (rule_id, parents) in
  if not (Firings.mem t.sup_suppressed_keys key) then begin
    Firings.add t.sup_suppressed_keys key ();
    t.sup_suppressed <-
      { sf_rule = rule_id; sf_parents = parents;
        sf_image = canonical_parents image }
      :: t.sup_suppressed
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint images: the support as plain data over the writer's ids *)

type image = {
  im_entries : (fact * entry list) list;  (* each list most recent first *)
  im_null_facts : (int * fact list) list;
  im_suppressed : suppressed_firing list;  (* reverse recording order *)
}

let image t =
  { im_entries = Tbl.fold (fun k r acc -> (k, !r) :: acc) t.sup_entries [];
    im_null_facts = Hashtbl.fold (fun n r acc -> (n, !r) :: acc) t.sup_null_facts [];
    im_suppressed = t.sup_suppressed }

(* Entry lists and recording order are preserved; duplicates are
   impossible when [into] is empty and harmless otherwise ([record]
   dedups, and consumers of children lists dedup on their side). *)
let absorb ~into ~remap im =
  let fact (p, f) = (p, Array.map remap f) in
  let facts = List.map fact in
  List.iter
    (fun ((pred, f), entries) ->
      let f = Array.map remap f in
      List.iter
        (fun e ->
          record into ~rule_id:e.se_rule ~parents:(facts e.se_parents)
            ~nulls:(List.map remap e.se_nulls) pred f)
        (List.rev entries))
    im.im_entries;
  List.iter
    (fun (n, carriers) ->
      let n = remap n and carriers = facts carriers in
      match Hashtbl.find_opt into.sup_null_facts n with
      | Some r -> r := carriers @ !r
      | None -> Hashtbl.add into.sup_null_facts n (ref carriers))
    im.im_null_facts;
  List.iter
    (fun sf ->
      record_suppressed into ~rule_id:sf.sf_rule ~parents:(facts sf.sf_parents)
        ~image:(facts sf.sf_image))
    (List.rev im.im_suppressed)

(* ------------------------------------------------------------------ *)

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
    List.iter (fun pf -> if not (dead pf) then Tbl.replace parents pf ()) e.se_parents
  in
  let drop k doomed =
    Option.iter
      (fun r ->
        match List.partition doomed !r with
        | [], _ -> ()
        | gone, live ->
            List.iter touch gone;
            r := live)
      (Tbl.find_opt t.sup_entries k)
  in
  List.iter
    (fun k ->
      List.iter touch (listed Tbl.find_opt t.sup_entries k);
      Tbl.remove t.sup_entries k;
      List.iter
        (fun c ->
          if not (dead c) then drop c (fun e -> List.exists dead e.se_parents))
        (listed Tbl.find_opt t.sup_children k);
      Tbl.remove t.sup_children k)
    dead_facts;
  List.iter (fun c -> drop c (fun e -> void e.se_rule)) kept;
  Tbl.iter
    (fun parent () ->
      Option.iter
        (fun r ->
          let seen = Tbl.create 8 in
          let consumes c =
            (not (Tbl.mem seen c))
            && List.exists
                 (fun e -> List.exists (fact_equal parent) e.se_parents)
                 (listed Tbl.find_opt t.sup_entries c)
            && (Tbl.add seen c ();
                true)
          in
          match List.filter consumes !r with
          | [] -> Tbl.remove t.sup_children parent
          | live -> r := live)
        (Tbl.find_opt t.sup_children parent))
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
          Firings.remove t.sup_suppressed_keys (sf.sf_rule, sf.sf_parents);
        keep)
      t.sup_suppressed;
  !refire
