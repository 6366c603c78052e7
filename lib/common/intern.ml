(* Append-only dictionary from values to dense int ids.

   The value -> id map is a [Slot_table] whose slots are ids: a lookup
   hashes the value, and the table asks about the ids whose hash tags
   agree, each compared against [vals.(id)]. The hash is the
   dictionary's own ([hash] below): an [Int] is mixed like a fact's
   ids, any other value takes [Value.hash], so values [Value.equal]
   equates hash alike.

   Concurrency discipline. Within a chase the dictionary is mutated
   only on sequential paths — program load, rule preparation, round-0
   evaluation, the merge sweep, checkpoint resume. While the database
   is frozen for a parallel round, pool workers only call the
   read-only [find]/[resolve]/[is_null]; the pool's own mutex provides
   the happens-before edge for anything interned before the round
   started. Values computed by workers that are not yet in the
   dictionary go through a worker-local [Scratch] table (negative ids)
   and are re-interned sequentially at merge, so id assignment is
   deterministic across jobs x planner x chunking.

   The server is the one place where reads and writes overlap: every
   published epoch shares the master's dictionary, reader domains call
   [find]/[resolve] on every query while the writer interns new
   constants and nulls. One appending writer, any number of lock-free
   readers:
   - [find]: a read can be torn two ways. The table's doubling installs
     its new cell array before refilling it, so a probe can miss a
     present key; and the reader's [vals] can be older than the table
     it probes, so an id can lie past its end. [intern] bumps
     [version] to odd before it inserts and back to even after; a
     lookup that saw an odd version, or a version that moved under it,
     retries. Its compare checks the id against the length of the
     [vals] it loaded, so a torn read never raises before the retry.
   - [resolve]/[is_null]: the id arrays are replaced whole when they
     grow, published through atomics after the copy, so a reader that
     loads a new array sees its contents; and the ids a reader holds
     were published to it (through the epoch, or the version) after
     their slots were written. No retry is needed. *)

type t = {
  vals : Value.t array Atomic.t; (* id -> value; replaced when grown *)
  nulls : Bytes.t Atomic.t; (* id -> 1 iff the value is a labeled null *)
  mutable len : int;
  ids : Slot_table.t; (* value -> id, under [hash] *)
  version : int Atomic.t; (* odd while [intern] inserts into [ids] *)
}

let hash = function Value.Int i -> Slot_table.mix 17 i | v -> Value.hash v

(* [find] of [ids] for [v], whose ids index [vals] *)
let lookup ids vals h v =
  Slot_table.find ids h (fun id ->
      id < Array.length vals && Value.equal (Array.unsafe_get vals id) v)

let create () =
  {
    vals = Atomic.make (Array.make 256 (Value.Int 0));
    nulls = Atomic.make (Bytes.make 256 '\000');
    len = 0;
    ids = Slot_table.create ();
    version = Atomic.make 0;
  }

let length t = t.len

let ensure t n =
  let vals = Atomic.get t.vals in
  if n > Array.length vals then begin
    let cap = max n (2 * Array.length vals) in
    let vals' = Array.make cap (Value.Int 0) in
    Array.blit vals 0 vals' 0 t.len;
    let nulls' = Bytes.make cap '\000' in
    Bytes.blit (Atomic.get t.nulls) 0 nulls' 0 t.len;
    Atomic.set t.vals vals';
    Atomic.set t.nulls nulls'
  end

let intern t v =
  let h = hash v in
  let c = lookup t.ids (Atomic.get t.vals) h v in
  if c >= 0 then Slot_table.slot t.ids c
  else begin
    let id = t.len in
    ensure t (id + 1);
    (Atomic.get t.vals).(id) <- v;
    if Value.is_null v then Bytes.set (Atomic.get t.nulls) id '\001';
    t.len <- id + 1;
    Atomic.incr t.version;
    Slot_table.add t.ids c h id;
    Atomic.incr t.version;
    id
  end

let rec find_hashed t x h =
  let v = Atomic.get t.version in
  let r =
    if v land 1 = 0 then
      let c = lookup t.ids (Atomic.get t.vals) h x in
      if c >= 0 then Some (Slot_table.slot t.ids c) else None
    else None
  in
  if v land 1 = 0 && Atomic.get t.version = v then r
  else begin
    Domain.cpu_relax ();
    find_hashed t x h
  end

let find t x = find_hashed t x (hash x)

(* [ensure] grows the arrays before [len] moves past their end *)
let resolve t id =
  let vals = Atomic.get t.vals in
  if id >= 0 && id < t.len && id < Array.length vals then vals.(id)
  else invalid_arg "Intern.resolve: unknown id"

let is_null t id =
  let nulls = Atomic.get t.nulls in
  if id >= 0 && id < t.len && id < Bytes.length nulls then
    Bytes.get nulls id = '\001'
  else invalid_arg "Intern.is_null: unknown id"

let export t = Array.sub (Atomic.get t.vals) 0 t.len

(* Worker-local side table for values first seen on a pool worker (the
   frozen dictionary cannot be appended to). Ids are negative so they
   can never collide with dictionary ids; they are only meaningful to
   the worker that created them and are re-interned at merge. Slot [k]
   of its table is id [-k - 1]. *)
module Scratch = struct
  type s = { mutable sc_vals : Value.t array; mutable sc_len : int; sc_ids : Slot_table.t }

  let create () = { sc_vals = [||]; sc_len = 0; sc_ids = Slot_table.create () }

  let id s v =
    let h = hash v in
    let c = lookup s.sc_ids s.sc_vals h v in
    if c >= 0 then -Slot_table.slot s.sc_ids c - 1
    else begin
      let k = s.sc_len in
      if k >= Array.length s.sc_vals then begin
        let cap = max 4 (2 * Array.length s.sc_vals) in
        let vals = Array.make cap (Value.Int 0) in
        Array.blit s.sc_vals 0 vals 0 s.sc_len;
        s.sc_vals <- vals
      end;
      s.sc_vals.(k) <- v;
      s.sc_len <- k + 1;
      Slot_table.add s.sc_ids c h k;
      -k - 1
    end

  let resolve s id =
    let k = -id - 1 in
    if k < 0 || k >= s.sc_len then invalid_arg "Intern.Scratch.resolve: unknown id";
    s.sc_vals.(k)
end
