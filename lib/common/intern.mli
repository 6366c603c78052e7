(** Append-only dictionary encoding of {!Value.t} into dense int ids,
    so facts can be stored and joined as unboxed [int array]s with O(1)
    equality and cheap hashing (the standard dictionary-encoding move in
    triple stores and KG engines).

    Within a chase the engine mutates the table only on sequential
    paths (program load, rule preparation, round 0, the merge sweep,
    resume); while the database is frozen for a parallel round, pool
    workers use only the read-only [find]/[resolve]/[is_null]. Values a
    worker computes that are not in the dictionary get worker-local
    negative ids from {!Scratch} and are re-interned sequentially at
    merge, which keeps id assignment — and therefore every downstream
    artifact — deterministic across jobs x planner x chunking.

    The value-to-id map is a {!Slot_table} whose slots are ids, under
    a hash private to the dictionary: an [Int] is mixed as
    {!Slot_table.mix} mixes ids, every other value takes {!Value.hash}.
    So values {!Value.equal} equates ([nan], [0.] and [-0.], [Id]s that
    differ only in their hint) hash alike and share one id.

    The reads are also safe against {e one} concurrent writer, which is
    how the server uses the table: reader domains answer queries
    through [find]/[resolve] while [intern] appends. A [find] racing
    an insert can be torn two ways: the table doubles by installing
    its new cell array before refilling it, and the id array the
    reader loaded can be older than the table it probes. Each
    insertion runs between two bumps of a version counter, and [find]
    retries while the version is odd or moved during the lookup; its
    compare checks an id against the length of the id array it loaded
    first. The id arrays are published atomically when they grow. So
    a reader never misses a present key, never raises on an id
    published to it, and never takes a lock. Two writers still need
    outside serialization. *)

type t

val create : unit -> t
val length : t -> int
(** Number of interned values; valid ids are [0 .. length - 1]. *)

val intern : t -> Value.t -> int
(** The id of the value, appending it if absent. One writer at a time:
    within a chase only from sequential sections (never while the
    owning database is frozen for a parallel round). *)

val find : t -> Value.t -> int option
(** Read-only lookup; safe from pool workers and from any domain while
    one writer interns. *)

val resolve : t -> int -> Value.t
(** The value of an id. Safe from any domain for the ids published to
    it (in a fact of a frozen epoch, or returned by {!find}) while one
    writer interns. Raises [Invalid_argument] on an unknown id. *)

val is_null : t -> int -> bool
(** Whether the id denotes a labeled null (O(1) flag lookup). *)

val export : t -> Value.t array
(** Fresh array of all interned values in id order, for snapshots; a
    loader re-interns it to build the id remapping. *)

(** Worker-local ids for values not in the (frozen) dictionary. Ids are
    negative, never collide with dictionary ids, and are meaningless
    outside the worker that created them. *)
module Scratch : sig
  type s

  val create : unit -> s
  val id : s -> Value.t -> int
  val resolve : s -> int -> Value.t
end
