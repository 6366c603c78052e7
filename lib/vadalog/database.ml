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
    (its slot) that the engine uses as a deterministic sort key. The
    dedup table is keyed on the [int array] fact itself — no list key
    is allocated per {!add}/{!mem} probe. Removal tombstones a slot and
    drops the fact from the dedup set and its index postings, so
    survivors keep their relative order; a store compacts (renumbering
    its slots densely) only once its dead slots outnumber its live
    facts.

    For the parallel chase the store can be {!freeze}-frozen: a frozen
    database rejects writes and never mutates on {!lookup} (a missing
    index falls back to a linear scan instead of being built, and a
    probe key containing a value absent from the dictionary simply has
    no matches), so any number of domains may read it — and the
    read-only dictionary — concurrently. {!prepare_index} builds the
    indexes a query plan will need {e before} the parallel section.

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
  let hash k = List.fold_left (fun h i -> (h * 31) + i) 17 k
end

module IKeyTbl = Hashtbl.Make (IKey)

(* Interned facts: pointwise int equality, multiplicative hash. *)
module IFact = struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash f = Array.fold_left (fun h i -> (h * 31) + i) (Array.length f) f
end

module IFactTbl = Hashtbl.Make (IFact)

(* Growable array of ascending insertion sequences (index postings). *)
type postings = { mutable p_seq : int array; mutable p_len : int }

let postings_add ps seq =
  if ps.p_len = Array.length ps.p_seq then begin
    let cap = max 8 (2 * ps.p_len) in
    let a = Array.make cap 0 in
    Array.blit ps.p_seq 0 a 0 ps.p_len;
    ps.p_seq <- a
  end;
  ps.p_seq.(ps.p_len) <- seq;
  ps.p_len <- ps.p_len + 1

(* slots of removed facts hold this array (compared physically) *)
let tomb : ifact = Array.make 1 (-1)

type pred_store = {
  mutable arr : ifact array;  (* slots 0 .. len-1 in insertion order *)
  mutable len : int;          (* slots in use, live or dead *)
  mutable count : int;        (* live facts *)
  seqs : int IFactTbl.t;      (* dedup set: live fact -> its slot *)
  indexes : (int list, postings IKeyTbl.t) Hashtbl.t;
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
}

let create ?dict () =
  let dict = match dict with Some d -> d | None -> Intern.create () in
  { preds = Hashtbl.create 64; dict; total = 0; frozen = false;
    recording = false; changes = [] }

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
        { arr = [||]; len = 0; count = 0; seqs = IFactTbl.create 256;
          indexes = Hashtbl.create 4 }
      in
      Hashtbl.add t.preds pred s;
      s

(* A predicate may hold facts of several arities (nothing enforces a
   unique arity per name); a fact too short for the position pattern
   simply has no key under it. *)
let index_key positions (fact : ifact) =
  let n = Array.length fact in
  if List.exists (fun i -> i >= n) positions then None
  else Some (List.map (fun i -> fact.(i)) positions)

let index_insert idx positions fact seq =
  match index_key positions fact with
  | None -> ()
  | Some k -> (
      match IKeyTbl.find_opt idx k with
      | Some ps -> postings_add ps seq
      | None ->
          let ps = { p_seq = Array.make 8 0; p_len = 0 } in
          postings_add ps seq;
          IKeyTbl.add idx k ps)

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
  if IFactTbl.mem s.seqs fact then false
  else begin
    let seq = s.len in
    IFactTbl.add s.seqs fact seq;
    buffer_append s fact;
    t.total <- t.total + 1;
    Hashtbl.iter (fun positions idx -> index_insert idx positions fact seq) s.indexes;
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
  | Some s -> IFactTbl.mem s.seqs fact
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

let build_detached s positions =
  let idx = IKeyTbl.create (max 64 s.count) in
  iter_live s s.len (fun i fact -> index_insert idx positions fact i);
  idx

let build_index s positions =
  let idx = build_detached s positions in
  Hashtbl.add s.indexes positions idx;
  idx

(* drop [seq] from the ascending postings of [fact]'s key: a binary
   search and a shift within the one group *)
let index_remove idx positions fact seq =
  match index_key positions fact with
  | None -> ()
  | Some k -> (
      match IKeyTbl.find_opt idx k with
      | None -> ()
      | Some ps ->
          let rec find lo hi =
            if lo >= hi then lo
            else
              let mid = (lo + hi) / 2 in
              if ps.p_seq.(mid) < seq then find (mid + 1) hi else find lo mid
          in
          let i = find 0 ps.p_len in
          if i < ps.p_len && ps.p_seq.(i) = seq then begin
            Array.blit ps.p_seq (i + 1) ps.p_seq i (ps.p_len - i - 1);
            ps.p_len <- ps.p_len - 1;
            if ps.p_len = 0 then IKeyTbl.remove idx k
          end)

(* survivors renumbered densely from 0 in slot order, every index
   pattern rebuilt over them *)
let compact s =
  let live = Array.make (max 16 s.count) tomb in
  let n = ref 0 in
  iter_live s s.len (fun _ fact ->
      live.(!n) <- fact;
      IFactTbl.replace s.seqs fact !n;
      incr n);
  s.arr <- live;
  s.len <- !n;
  let patterns = Hashtbl.fold (fun positions _ acc -> positions :: acc) s.indexes [] in
  Hashtbl.reset s.indexes;
  List.iter (fun positions -> ignore (build_index s positions)) patterns

(* tombstone one live fact; the store compacts once its dead slots
   outnumber its live facts, and an emptied predicate disappears *)
let remove_i t pred (fact : ifact) =
  match Hashtbl.find_opt t.preds pred with
  | None -> false
  | Some s -> (
      match IFactTbl.find_opt s.seqs fact with
      | None -> false
      | Some seq ->
          let fact = s.arr.(seq) in
          IFactTbl.remove s.seqs fact;
          s.arr.(seq) <- tomb;
          s.count <- s.count - 1;
          t.total <- t.total - 1;
          Hashtbl.iter (fun positions idx -> index_remove idx positions fact seq) s.indexes;
          if s.count = 0 then
            (* no ghost store: [predicates] (and the maintenance layer's
               canonical forms) must agree with a database into which
               only the survivors were inserted *)
            Hashtbl.remove t.preds pred
          else if s.len - s.count > s.count then compact s;
          true)

(** [remove_batch t facts] deletes every listed (pred, fact) pair that
    is present and returns how many were removed; duplicates count
    once. Each removal touches only its fact's slot, dedup entry and
    index groups (see {!remove_i}). Raises [Invalid_argument] when
    frozen. (The dictionary is append-only: ids of removed facts stay
    interned, which is harmless — membership is decided by the dedup
    set.) *)
let remove_batch ?on_remove t facts =
  if t.frozen then invalid_arg "Database.remove_batch: database is frozen";
  List.fold_left
    (fun removed (pred, fact) ->
      match find_fact t fact with
      | Some ifact when remove_i t pred ifact ->
          note_change t (Removed (pred, ifact));
          Option.iter (fun f -> f pred fact) on_remove;
          removed + 1
      | _ -> removed)
    0 facts

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

let freeze t = t.frozen <- true
let thaw t = t.frozen <- false
let is_frozen t = t.frozen

let prepare_index t pred positions =
  if positions <> [] then
    match Hashtbl.find_opt t.preds pred with
    | None -> ()
    | Some s ->
        if not (Hashtbl.mem s.indexes positions) then ignore (build_index s positions)

let indexed_patterns t pred =
  match Hashtbl.find_opt t.preds pred with
  | None -> []
  | Some s ->
      Hashtbl.fold (fun positions _ acc -> positions :: acc) s.indexes []
      |> List.sort compare

(* [f] over one index group, as long as it is now; returns that length *)
let iter_group s (ps : postings) f =
  let n = ps.p_len in
  for i = 0 to n - 1 do
    let seq = ps.p_seq.(i) in
    f seq s.arr.(seq)
  done;
  n

(** [iter_matches_i t pred positions key f] calls [f seq ifact] for
    every fact whose ids at [positions] equal [key], in ascending
    insertion order ([seq] is the fact's per-predicate insertion
    sequence). Returns the number of facts {e examined} to produce the
    matches: the index-group length when an index serves the probe (or
    is built, when the store is unfrozen), but the whole predicate on
    the frozen missing-index path, where the probe degrades to a linear
    scan — the honest probe cost the engine's [rs_probes] counter
    reports. The group is the one at call time: facts [f] inserts are
    neither visited nor counted. *)
let iter_matches_i t pred positions key f =
  match Hashtbl.find_opt t.preds pred with
  | None -> 0
  | Some s ->
      let live = s.count in
      if positions = [] then begin
        iter_live s s.len f;
        live
      end
      else begin
        match Hashtbl.find_opt s.indexes positions with
        | Some idx -> (
            match IKeyTbl.find_opt idx key with
            | Some ps -> iter_group s ps f
            | None -> 0)
        | None ->
            if t.frozen then begin
              iter_live s s.len (fun i fact ->
                  match index_key positions fact with
                  | Some k when IKey.equal k key -> f i fact
                  | _ -> ());
              live
            end
            else begin
              match IKeyTbl.find_opt (build_index s positions) key with
              | Some ps -> iter_group s ps f
              | None -> 0
            end
      end

(** Interned facts whose ids at [positions] equal [key], in insertion
    order (see {!iter_matches_i} for the index semantics). *)
let lookup_i t pred positions key =
  let acc = ref [] in
  ignore (iter_matches_i t pred positions key (fun _ f -> acc := f :: !acc));
  List.rev !acc

(** Value-level probe: same semantics as {!iter_matches_i} after
    encoding the key through the dictionary. A key containing a value
    that was never interned matches nothing and examines nothing (such
    a value cannot occur in any stored fact) — in particular the probe
    never mutates the dictionary, so it is frozen-safe. *)
let iter_matches t pred positions key f =
  match find_key t key with
  | None -> 0
  | Some ikey -> iter_matches_i t pred positions ikey (fun seq ifact -> f seq (resolve_fact t ifact))

(** Facts whose values at [positions] equal [key], in insertion order.
    Builds (and then maintains) a hash index for the position pattern on
    first use; an empty pattern is a full scan. On a frozen database a
    missing index is answered by a linear scan instead (no mutation). *)
let lookup t pred positions key =
  let acc = ref [] in
  ignore (iter_matches t pred positions key (fun _ f -> acc := f :: !acc));
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Side-car index cache for frozen stores.

   A frozen database answers a probe on an unprepared pattern with a
   full linear scan (it must not mutate itself — any number of domains
   may be reading it). For a serving layer that sees the same pattern
   on every request that is an O(n) scan per request; an [index_cache]
   amortizes it: the first probe builds the pattern's index {e outside}
   the store, under the cache's mutex, and every later probe (from any
   domain) answers through the cached index. The mutex protects only
   the lookup/build step; a published index is immutable, so probes
   read it lock-free. Safe only against a frozen store (the postings
   would go stale under writes), which is exactly the epoch-snapshot
   use the reasoning server makes of it. *)

type index_cache = {
  ic_mu : Mutex.t;
  ic_tbl : (string * int list, postings IKeyTbl.t) Hashtbl.t;
}

let cache_create () = { ic_mu = Mutex.create (); ic_tbl = Hashtbl.create 8 }

let cached_patterns c =
  Mutex.lock c.ic_mu;
  let ps = Hashtbl.fold (fun k _ acc -> k :: acc) c.ic_tbl [] in
  Mutex.unlock c.ic_mu;
  List.sort compare ps

let cache_index c t pred positions =
  match Hashtbl.find_opt t.preds pred with
  | None -> None
  | Some s -> (
      match Hashtbl.find_opt s.indexes positions with
      | Some idx -> Some (s, idx) (* the store itself is prepared *)
      | None ->
          Mutex.lock c.ic_mu;
          let idx =
            match Hashtbl.find_opt c.ic_tbl (pred, positions) with
            | Some idx -> idx
            | None ->
                let idx = build_detached s positions in
                Hashtbl.add c.ic_tbl (pred, positions) idx;
                idx
          in
          Mutex.unlock c.ic_mu;
          Some (s, idx))

(** [iter_matches_cached cache t pred positions key f] — the semantics
    of {!iter_matches}, but a missing index on a frozen store is built
    once into [cache] (thread-safe) instead of degrading to a linear
    scan per probe. The returned examined count is the postings length
    (the probe is indexed either way after the first call). *)
let iter_matches_cached c t pred positions key f =
  if positions = [] || not t.frozen then iter_matches t pred positions key f
  else
    match find_key t key with
    | None -> 0
    | Some ikey -> (
        match cache_index c t pred positions with
        | None -> 0
        | Some (s, idx) -> (
            match IKeyTbl.find_opt idx ikey with
            | Some ps ->
                for i = 0 to ps.p_len - 1 do
                  let seq = ps.p_seq.(i) in
                  f seq (resolve_fact t s.arr.(seq))
                done;
                ps.p_len
            | None -> 0))

let copy t =
  (* the dictionary is shared: ids remain stable across copies, which
     lets the engine compare and ship interned facts between a store
     and its frozen snapshot *)
  let t' = create ~dict:t.dict () in
  Hashtbl.iter
    (fun pred s ->
      iter_live s s.len (fun _ fact -> ignore (insert t' pred (Array.copy fact)));
      (* carry the source's index patterns over: a frozen copy could
         otherwise never build them and would linear-scan every probe *)
      Hashtbl.iter (fun positions _ -> prepare_index t' pred positions) s.indexes)
    t.preds;
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
