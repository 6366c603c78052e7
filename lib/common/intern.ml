(* Append-only dictionary from values to dense int ids.

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
   - [find]: a stdlib [Hashtbl] resize installs its new, empty bucket
     array before re-inserting, so an unguarded lookup can miss a
     present key. [intern] bumps [version] to odd before it inserts
     and back to even after; a lookup that saw an odd version, or a
     version that moved under it, retries.
   - [resolve]/[is_null]: the id arrays are replaced whole when they
     grow, published through atomics after the copy, so a reader that
     loads a new array sees its contents; and the ids a reader holds
     were published to it (through the epoch, or the version) after
     their slots were written. No retry is needed. *)

module VTbl = Hashtbl.Make (Value.Hashed)

type t = {
  vals : Value.t array Atomic.t; (* id -> value; replaced when grown *)
  nulls : Bytes.t Atomic.t; (* id -> 1 iff the value is a labeled null *)
  mutable len : int;
  ids : int VTbl.t; (* value -> id *)
  version : int Atomic.t; (* odd while [intern] inserts into [ids] *)
}

let create ?(size = 256) () =
  {
    vals = Atomic.make (Array.make (max 1 size) (Value.Int 0));
    nulls = Atomic.make (Bytes.make (max 1 size) '\000');
    len = 0;
    ids = VTbl.create (max 1 size);
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
  match VTbl.find_opt t.ids v with
  | Some id -> id
  | None ->
      let id = t.len in
      ensure t (id + 1);
      (Atomic.get t.vals).(id) <- v;
      if Value.is_null v then Bytes.set (Atomic.get t.nulls) id '\001';
      t.len <- id + 1;
      Atomic.incr t.version;
      VTbl.add t.ids v id;
      Atomic.incr t.version;
      id

let rec find t x =
  let v = Atomic.get t.version in
  let r = if v land 1 = 0 then VTbl.find_opt t.ids x else None in
  if v land 1 = 0 && Atomic.get t.version = v then r
  else begin
    Domain.cpu_relax ();
    find t x
  end

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
   the worker that created them and are re-interned at merge. *)
module Scratch = struct
  type s = { mutable sc_vals : Value.t array; mutable sc_len : int; sc_ids : int VTbl.t }

  let create () = { sc_vals = [||]; sc_len = 0; sc_ids = VTbl.create 8 }

  let id s v =
    match VTbl.find_opt s.sc_ids v with
    | Some id -> id
    | None ->
        let k = s.sc_len in
        if k >= Array.length s.sc_vals then begin
          let cap = max 4 (2 * Array.length s.sc_vals) in
          let vals = Array.make cap (Value.Int 0) in
          Array.blit s.sc_vals 0 vals 0 s.sc_len;
          s.sc_vals <- vals
        end;
        s.sc_vals.(k) <- v;
        s.sc_len <- k + 1;
        let id = -k - 1 in
        VTbl.add s.sc_ids v id;
        id

  let resolve s id =
    let k = -id - 1 in
    if k < 0 || k >= s.sc_len then invalid_arg "Intern.Scratch.resolve: unknown id";
    s.sc_vals.(k)
end
