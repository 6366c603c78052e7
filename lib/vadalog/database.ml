(** Fact store of the Vadalog engine: per-predicate sets of tuples with
    lazily built hash indexes on bound-position patterns.

    Facts are dictionary-encoded: every {!Kgm_common.Value.t} is
    interned into a dense int id ({!Kgm_common.Intern}) and a stored
    fact is an unboxed [int array]. Probes, dedup and index keys
    compare and hash machine ints — O(1) equality, no structural
    traversal of boxed values on the hot path. The dictionary is owned
    by the database (shared by {!copy}) and interning agrees with
    [Value.equal], so a fact containing [Float nan] still equals itself
    (interning it twice yields the same id) and [Id]s are not
    distinguished by their cosmetic hint.

    Facts live in per-predicate append-order buffers (doubling arrays),
    so insertion order is the storage order: probes and {!facts} never
    reverse a list, and every fact carries an insertion sequence number
    (its slot) that the engine uses as a deterministic sort key.

    Everything else a store holds is flat [int array]s of slots. The
    dedup set is a {!Slot_table} of the live slots, hashed by their
    facts: an insert is one probe that compares against [arr.(slot)],
    with no cell allocated per fact. An index is a {!Slot_table} of each
    group's first slot, hashed by the group's key and compared against
    that fact, plus two slot-indexed link arrays chaining every group in
    slot order. Per fact that is a buffer word (8–16 bytes), a dedup
    entry (16–32) and, per index, two links (16–32) and a table entry
    per group (16–32); the fact arrays are the only boxed data and are
    shared by every copy. Removal tombstones a slot, shifts its dedup
    entry out and unlinks it from its index groups, so survivors keep
    their relative order; a store compacts (renumbering its slots
    densely, renaming them in every table in place) only once its dead
    slots outnumber its live facts.

    The first probe of a pattern builds its index, on any store. A
    {!freeze}-frozen store rejects writes, so any number of domains may
    read it — and the read-only dictionary — concurrently: a build there
    runs under the store's one mutex, looks again inside it, and
    publishes by replacing the predicate's immutable (positions, index)
    list held in an [Atomic.t], so a probe of an existing index takes
    no lock and every domain that sees the index sees it finished. A
    probe key containing a value absent from the dictionary simply has
    no matches.

    A store can also {!record} its successful writes into a change log,
    which {!replay} applies to a twin — how the server turns a retired
    epoch into the next master in O(batch). *)

open Kgm_common

type fact = Value.t array
type ifact = int array

(* Value-keyed table for callers that key on resolved tuples (the
   engine's aggregate states among them). Hashing/equality must agree
   with Value.equal, not with structural equality. *)
module Key = struct
  type t = Value.t list

  let equal = List.equal Value.equal

  (* an explicit seeded FNV-style fold over the element hashes:
     [Hashtbl.hash] on the hash list would stop mixing after its
     default 10 meaningful nodes, so wide keys differing only past
     position 10 would all collide into one bucket *)
  let hash k =
    List.fold_left
      (fun h v -> (h * 0x01000193) lxor Value.hash v)
      0x811c9dc5 k
    land max_int
end

module KeyTbl = Hashtbl.Make (Key)

(* Interned probe keys: the values at a pattern's positions, as ids. *)
module IKey = struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = Slot_table.hash_ids
end

module IKeyTbl = Hashtbl.Make (IKey)

(* slots of removed facts hold this array (compared physically) *)
let tomb : ifact = Array.make 1 (-1)

(* The index on one position pattern. A group (the facts that agree at
   [positions]) is a doubly linked chain of slots in ascending order;
   the table holds the first slot of every group, so its key is read
   off that fact. [next] and [prev] are indexed by slot and reach the
   store's capacity as [insert] needs them; only the slots of live
   facts with a key have meaningful links. *)
type index = {
  positions : int list;
  heads : Slot_table.t;      (* first slot of each group, by key hash *)
  mutable next : int array;  (* the group's next slot; the last slot holds
                                minus the group's length *)
  mutable prev : int array;  (* the group's previous slot; the first slot
                                holds the last *)
}

type pred_store = {
  mutable arr : ifact array;  (* slots 0 .. len-1 in insertion order *)
  mutable len : int;          (* slots in use, live or dead *)
  mutable count : int;        (* live facts *)
  dedup : Slot_table.t;       (* the slot of every live fact, by fact hash *)
  indexes : index list Atomic.t;
      (* the list is replaced whole, never edited: readers of a frozen
         store load it without a lock *)
}

(* one successful write of a recording store, replayable on its twin *)
type change = Added of string * ifact | Removed of string * ifact

type t = {
  preds : (string, pred_store) Hashtbl.t;
  dict : Intern.t;
  mutable total : int;
  mutable frozen : bool;
  mutable recording : bool;
  mutable changes : change list;  (* reverse order *)
  build_mu : Mutex.t;  (* serializes index builds *)
}

let create ?dict () =
  let dict = match dict with Some d -> d | None -> Intern.create () in
  { preds = Hashtbl.create 64; dict; total = 0; frozen = false;
    recording = false; changes = []; build_mu = Mutex.create () }

let note_change t c = if t.recording then t.changes <- c :: t.changes

let dict t = t.dict
let intern_fact t (f : fact) : ifact = Array.map (Intern.intern t.dict) f
let resolve_fact t (f : ifact) : fact = Array.map (Intern.resolve t.dict) f

(* Read-only encoding of a fact; [None] when some value was never
   interned (then the fact cannot be stored here). Frozen-safe. *)
let find_fact t (f : fact) : ifact option =
  let n = Array.length f in
  let out = Array.make n 0 in
  let rec go i =
    if i >= n then Some out
    else
      match Intern.find t.dict f.(i) with
      | Some id ->
          out.(i) <- id;
          go (i + 1)
      | None -> None
  in
  go 0

let find_key t (k : Value.t list) : int list option =
  let rec go = function
    | [] -> Some []
    | v :: rest -> (
        match Intern.find t.dict v with
        | Some id -> ( match go rest with Some ids -> Some (id :: ids) | None -> None)
        | None -> None)
  in
  go k

let store t pred =
  match Hashtbl.find_opt t.preds pred with
  | Some s -> s
  | None ->
      let s =
        { arr = [||]; len = 0; count = 0; dedup = Slot_table.create ();
          indexes = Atomic.make [] }
      in
      Hashtbl.add t.preds pred s;
      s

let same_fact (a : ifact) (b : ifact) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* the dedup cell of [fact] (of hash [h]), or a miss (see
   [Slot_table.find]) *)
let find_dup s h fact =
  Slot_table.find s.dedup h (fun slot -> same_fact fact s.arr.(slot))

(* A predicate may hold facts of several arities (nothing enforces a
   unique arity per name); a fact too short for the position pattern
   simply has no key under it. *)
let has_key positions (fact : ifact) =
  let n = Array.length fact in
  List.for_all (fun i -> i < n) positions

let rec same_at positions (a : ifact) (b : ifact) =
  match positions with
  | [] -> true
  | i :: rest -> a.(i) = b.(i) && same_at rest a b

let rec key_at positions key (fact : ifact) =
  match (positions, key) with
  | [], [] -> true
  | i :: ps, k :: ks -> fact.(i) = k && key_at ps ks fact
  | _ -> false

(* the table cell of the group of [fact] (which has a key, of hash [h]),
   or a miss *)
let find_group s ix h fact =
  Slot_table.find ix.heads h (fun head -> same_at ix.positions fact s.arr.(head))

(* the first slot of [key]'s group, or -1 *)
let find_head s ix key =
  let c =
    Slot_table.find ix.heads (Slot_table.hash_ids key) (fun head ->
        key_at ix.positions key s.arr.(head))
  in
  if c < 0 then -1 else Slot_table.slot ix.heads c

let group_length ix head = - ix.next.(ix.prev.(head))

(* append [seq], the store's newest slot, to its group *)
let index_insert s ix fact seq =
  if has_key ix.positions fact then begin
    if seq >= Array.length ix.next then begin
      let grow a =
        let a' = Array.make (Array.length s.arr) 0 in
        Array.blit a 0 a' 0 (Array.length a);
        a'
      in
      ix.next <- grow ix.next;
      ix.prev <- grow ix.prev
    end;
    let h = Slot_table.hash_at ix.positions fact in
    let c = find_group s ix h fact in
    if c < 0 then begin
      ix.next.(seq) <- -1;
      ix.prev.(seq) <- seq;
      Slot_table.add ix.heads c h seq
    end
    else begin
      let head = Slot_table.slot ix.heads c in
      let last = ix.prev.(head) in
      ix.next.(seq) <- ix.next.(last) - 1;
      ix.next.(last) <- seq;
      ix.prev.(seq) <- last;
      ix.prev.(head) <- seq
    end
  end

(* unlink [seq] from its group, whose table entry moves to the next
   slot when [seq] was the first; [s.arr.(seq)] must still hold [fact],
   the group's key may be read off it *)
let index_remove s ix fact seq =
  if has_key ix.positions fact then begin
    let c = find_group s ix (Slot_table.hash_at ix.positions fact) fact in
    let head = Slot_table.slot ix.heads c in
    let last = ix.prev.(head) in
    if seq = last && seq = head then Slot_table.remove ix.heads c
    else begin
      ix.next.(last) <- ix.next.(last) + 1;
      if seq = head then begin
        let second = ix.next.(head) in
        ix.prev.(second) <- last;
        Slot_table.replace ix.heads c second
      end
      else if seq = last then begin
        let before = ix.prev.(seq) in
        ix.next.(before) <- ix.next.(last);
        ix.prev.(head) <- before
      end
      else begin
        let before = ix.prev.(seq) and after = ix.next.(seq) in
        ix.next.(before) <- after;
        ix.prev.(after) <- before
      end
    end
  end

let buffer_append s fact =
  if s.len = Array.length s.arr then begin
    let cap = max 16 (2 * s.len) in
    let a = Array.make cap tomb in
    Array.blit s.arr 0 a 0 s.len;
    s.arr <- a
  end;
  s.arr.(s.len) <- fact;
  s.len <- s.len + 1;
  s.count <- s.count + 1

(* [f slot fact] over the live slots below [len], in slot order *)
let iter_live s len f =
  for i = 0 to len - 1 do
    let fact = s.arr.(i) in
    if fact != tomb then f i fact
  done

(* append without the fault site or the change log: the shared step of
   [add_i] and [replay] *)
let insert t pred (fact : ifact) =
  let s = store t pred in
  let h = Slot_table.hash_fact fact in
  let c = find_dup s h fact in
  if c >= 0 then false
  else begin
    let seq = s.len in
    buffer_append s fact;
    Slot_table.add s.dedup c h seq;
    t.total <- t.total + 1;
    List.iter (fun ix -> index_insert s ix fact seq) (Atomic.get s.indexes);
    true
  end

(** [add_i t pred ifact] inserts an already-interned fact; returns
    [true] when it is new. *)
let add_i t pred (fact : ifact) =
  if t.frozen then invalid_arg "Database.add: database is frozen";
  (* chaos site: a crash here lands mid-round, which is exactly what the
     checkpoint/resume tests need to provoke (one ref read when fault
     injection is off) *)
  Kgm_resilience.Faults.inject "db_insert";
  let fresh = insert t pred fact in
  if fresh then note_change t (Added (pred, fact));
  fresh

(** [add t pred fact] returns [true] when the fact is new. *)
let add t pred fact =
  if t.frozen then invalid_arg "Database.add: database is frozen";
  add_i t pred (intern_fact t fact)

let mem_i t pred (fact : ifact) =
  match Hashtbl.find_opt t.preds pred with
  | Some s -> find_dup s (Slot_table.hash_fact fact) fact >= 0
  | None -> false

let mem t pred fact =
  match find_fact t fact with Some f -> mem_i t pred f | None -> false

(* live facts of a store in slot order, mapped *)
let live_list s f =
  let acc = ref [] in
  for i = s.len - 1 downto 0 do
    let fact = s.arr.(i) in
    if fact != tomb then acc := f fact :: !acc
  done;
  !acc

let facts_i t pred =
  match Hashtbl.find_opt t.preds pred with
  | None -> []
  | Some s -> live_list s Fun.id

let facts t pred =
  match Hashtbl.find_opt t.preds pred with
  | None -> []
  | Some s -> live_list s (resolve_fact t)

let count t pred =
  match Hashtbl.find_opt t.preds pred with Some s -> s.count | None -> 0

let total t = t.total

let predicates t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.preds [] |> List.sort String.compare

let build_index s positions =
  let cap = Array.length s.arr in
  let ix =
    { positions; heads = Slot_table.create (); next = Array.make cap 0;
      prev = Array.make cap 0 }
  in
  iter_live s s.len (fun i fact -> index_insert s ix fact i);
  ix

(* survivors renumbered densely from 0 in slot order: the tables keep
   their cells (the keys have not changed) and rename the slots in
   them, and the links move to the new numbers *)
let compact s =
  let live = Array.make (max 16 s.count) tomb in
  let renum = Array.make s.len (-1) in
  let n = ref 0 in
  iter_live s s.len (fun i fact ->
      live.(!n) <- fact;
      renum.(i) <- !n;
      incr n);
  List.iter
    (fun ix ->
      let next = Array.make (Array.length live) 0 in
      let prev = Array.make (Array.length live) 0 in
      iter_live s s.len (fun i fact ->
          if has_key ix.positions fact then begin
            let after = ix.next.(i) in
            next.(renum.(i)) <- (if after < 0 then after else renum.(after));
            prev.(renum.(i)) <- renum.(ix.prev.(i))
          end);
      ix.next <- next;
      ix.prev <- prev;
      Slot_table.remap ix.heads (fun slot -> renum.(slot)))
    (Atomic.get s.indexes);
  Slot_table.remap s.dedup (fun slot -> renum.(slot));
  s.arr <- live;
  s.len <- !n

(* tombstone one live fact; the store compacts once its dead slots
   outnumber its live facts, and an emptied predicate disappears *)
let remove_i t pred (fact : ifact) =
  match Hashtbl.find_opt t.preds pred with
  | None -> false
  | Some s ->
      let c = find_dup s (Slot_table.hash_fact fact) fact in
      if c < 0 then false
      else begin
        let seq = Slot_table.slot s.dedup c in
        let fact = s.arr.(seq) in
        List.iter (fun ix -> index_remove s ix fact seq) (Atomic.get s.indexes);
        Slot_table.remove s.dedup c;
        s.arr.(seq) <- tomb;
        s.count <- s.count - 1;
        t.total <- t.total - 1;
        if s.count = 0 then
          (* no ghost store: [predicates] (and the maintenance layer's
             canonical forms) must agree with a database into which
             only the survivors were inserted *)
          Hashtbl.remove t.preds pred
        else if s.len - s.count > s.count then compact s;
        true
      end

(** [remove_batch t facts] deletes every listed (pred, fact) pair that
    is present and returns how many were removed; duplicates count
    once. Each removal touches only its fact's slot, dedup entry and
    index groups (see {!remove_i}). Raises [Invalid_argument] when
    frozen. (The dictionary is append-only: ids of removed facts stay
    interned, which is harmless — membership is decided by the dedup
    set.) *)
let remove_batch_i t facts =
  if t.frozen then invalid_arg "Database.remove_batch: database is frozen";
  List.fold_left
    (fun removed (pred, ifact) ->
      if remove_i t pred ifact then begin
        note_change t (Removed (pred, ifact));
        removed + 1
      end
      else removed)
    0 facts

(* the listed facts whose values are all interned, as ids: no other
   fact can be stored *)
let interned t facts =
  List.filter_map
    (fun (pred, fact) -> Option.map (fun f -> (pred, f)) (find_fact t fact))
    facts

let remove_batch t facts = remove_batch_i t (interned t facts)

(* ---- change log ---- *)

let record t on =
  t.recording <- on;
  t.changes <- []

let replay t ~into =
  if into.frozen then invalid_arg "Database.replay: target is frozen";
  if into.dict != t.dict then invalid_arg "Database.replay: foreign dictionary";
  let changes = List.rev t.changes in
  t.changes <- [];
  List.iter
    (function
      | Added (pred, fact) -> ignore (insert into pred fact)
      | Removed (pred, fact) -> ignore (remove_i into pred fact))
    changes;
  List.length changes

let apply_batch_i t ~retracts ~inserts =
  let removed = remove_batch_i t retracts in
  let inserted =
    List.fold_left
      (fun n (pred, fact) ->
        if insert t pred fact then begin
          note_change t (Added (pred, fact));
          n + 1
        end
        else n)
      0 inserts
  in
  (removed, inserted)

let apply_batch t ~retracts ~inserts =
  (* before interning: a frozen store's dictionary takes no value *)
  if t.frozen then invalid_arg "Database.remove_batch: database is frozen";
  apply_batch_i t ~retracts:(interned t retracts)
    ~inserts:(List.map (fun (pred, fact) -> (pred, intern_fact t fact)) inserts)

let freeze t = t.frozen <- true
let thaw t = t.frozen <- false
let is_frozen t = t.frozen

(* The index serving [positions] (non-empty), built by the first probe
   that needs it. Readers on other domains may be probing a frozen
   store, so the build runs under [build_mu], looks again inside it, and
   publishes through the atomic: an existing index is found without the
   lock, and fully built *)
let index_for t s positions =
  let serves ix = List.equal Int.equal ix.positions positions in
  match List.find_opt serves (Atomic.get s.indexes) with
  | Some ix -> ix
  | None ->
      Mutex.protect t.build_mu (fun () ->
          let built = Atomic.get s.indexes in
          match List.find_opt serves built with
          | Some ix -> ix
          | None ->
              let ix = build_index s positions in
              Atomic.set s.indexes (ix :: built);
              ix)

let prepare_index t pred positions =
  if positions <> [] then
    match Hashtbl.find_opt t.preds pred with
    | None -> ()
    | Some s -> ignore (index_for t s positions)

let indexed_patterns t pred =
  match Hashtbl.find_opt t.preds pred with
  | None -> []
  | Some s ->
      List.sort compare (List.map (fun ix -> ix.positions) (Atomic.get s.indexes))

(* [f] over the group whose first slot is [head], up to its last slot
   now, until [f] returns [true]; returns how many facts it visited *)
let iter_group s ix head f =
  let last = ix.prev.(head) in
  let rec go seq i =
    if f seq s.arr.(seq) || seq = last then i else go ix.next.(seq) (i + 1)
  in
  go head 1

(* [f] over the live slots below the current length, until [f] returns
   [true]; returns how many live facts it visited *)
let scan_live s f =
  let len = s.len in
  let rec go i live =
    if i >= len then live
    else
      let fact = s.arr.(i) in
      if fact == tomb then go (i + 1) live
      else if f i fact then live + 1
      else go (i + 1) (live + 1)
  in
  go 0 0

(** [iter_matches_i t pred positions key f] calls [f seq ifact] for
    every fact whose ids at [positions] equal [key], in ascending
    insertion order ([seq] is the fact's per-predicate insertion
    sequence), until [f] returns [true]. Returns the number of facts
    {e examined} to produce the matches: the index-group length (the
    index is built first when the pattern has none), the live facts for
    the empty pattern; a probe that [f] stops counts what it visited up
    to there. The group is the one at call time: facts [f] inserts are
    neither visited nor counted. *)
let iter_matches_i t pred positions key f =
  match Hashtbl.find_opt t.preds pred with
  | None -> 0
  | Some s when positions = [] -> scan_live s f
  | Some s ->
      let ix = index_for t s positions in
      let head = find_head s ix key in
      if head < 0 then 0 else iter_group s ix head f

let probe_size t pred positions key =
  match Hashtbl.find_opt t.preds pred with
  | None -> 0
  | Some s when positions = [] -> s.count
  | Some s ->
      let ix = index_for t s positions in
      let head = find_head s ix key in
      if head < 0 then 0 else group_length ix head

(** Value-level probe: same semantics as {!iter_matches_i} after
    encoding the key through the dictionary. A key containing a value
    that was never interned matches nothing and examines nothing (such
    a value cannot occur in any stored fact) — in particular the probe
    never mutates the dictionary, so it is frozen-safe. *)
let iter_matches t pred positions key f =
  match find_key t key with
  | None -> 0
  | Some ikey ->
      iter_matches_i t pred positions ikey (fun seq ifact ->
          f seq (resolve_fact t ifact);
          false)

(** Facts whose values at [positions] equal [key], in insertion order.
    Builds (and then maintains) a hash index for the position pattern on
    first use; an empty pattern is a full scan. *)
let lookup t pred positions key =
  let acc = ref [] in
  ignore (iter_matches t pred positions key (fun _ f -> acc := f :: !acc));
  List.rev !acc

(* kgbench's names for [iter_matches] on a frozen store *)
type index_cache = unit
let cache_create () = ()
let iter_matches_cached () = iter_matches

let copy_index ix =
  { ix with heads = Slot_table.copy ix.heads; next = Array.copy ix.next;
            prev = Array.copy ix.prev }

let copy t =
  (* the dictionary is shared: ids remain stable across copies, which
     lets the engine compare and ship interned facts between a store
     and its frozen snapshot. So are the fact arrays: a stored fact is
     never written to, and [replay] shares them between twins too.
     Everything else is arrays of ints and slots, copied as they are *)
  let t' = create ~dict:t.dict () in
  Hashtbl.iter
    (fun pred s ->
      Hashtbl.replace t'.preds pred
        { s with arr = Array.copy s.arr; dedup = Slot_table.copy s.dedup;
                 indexes = Atomic.make (List.map copy_index (Atomic.get s.indexes)) })
    t.preds;
  t'.total <- t.total;
  t'.frozen <- t.frozen;
  t'

let pp ppf t =
  List.iter
    (fun pred ->
      List.iter
        (fun f ->
          Format.fprintf ppf "%s(%s).@." pred
            (String.concat ", " (List.map Value.to_string (Array.to_list f))))
        (facts t pred))
    (predicates t)
