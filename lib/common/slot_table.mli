(** Open-addressing hash sets of slot numbers: the fact store's dedup
    set and its index group tables ({!Kgm_vadalog.Database}), and the
    dictionary's value-to-id map ({!Intern}, where a slot is an id).

    The table is one [int array] whose cells are empty or hold an entry:
    a slot number (below 2{^32}) tagged with the low 30 bits of its
    hash. The table never sees the keys themselves: the caller hashes
    its key, and {!find} asks the caller's [matches] about the slots
    whose tag agrees — the store compares its key with the fact in that
    slot, the dictionary with the value of that id. Probing is linear
    from the home cell (the tag modulo the power-of-two capacity), the
    table doubles past half full, and {!remove} shifts the rest of the
    run back rather than leaving a marker. Growth and removal read
    homes from the tags, and {!copy} is an array copy: none of them
    re-hashes a key. Between a quarter and half of the cells are full,
    so an entry costs 16–32 bytes. A table holds at most 2{^29}
    entries (2{^30} cells, one per tag value); {!add} raises past that.

    Reads ({!find}, {!slot}, {!stats}) do not mutate, so any number of
    domains may read a table no one writes. A read racing one writer
    neither faults nor loops: {!find} probes the one cell array it
    loaded, which always has an empty cell. Its answer may be wrong,
    since a doubling installs its new array before refilling it; the
    caller detects that (the dictionary's version counter). *)

val hash_fact : int array -> int
(** The hash of a whole interned fact: every id, seeded with the arity.
    Each id is xored in, the sum multiplied, and the high bits folded
    into the low ones, which are the bits a table picks its home cell
    by. A plain [h * 31 + id] fold keeps the low bits constant for facts
    whose ids step together: own(v, v+1, w) hashes to [C + 992 * v], and
    992 = 32 * 31. *)

val mix : int -> int -> int
(** [mix h id]: one step of {!hash_fact}'s fold, folding [id] into the
    running hash [h]. *)

val hash_ids : int list -> int
(** The hash of an interned probe key. *)

val hash_at : int list -> int array -> int
(** [hash_at positions f] = [hash_ids] of [f]'s ids at [positions]. *)

type t

val create : unit -> t
(** An empty table of 16 cells. *)

val copy : t -> t

val find : t -> int -> (int -> bool) -> int
(** [find t h matches]: the cell of the entry of hash [h] whose slot
    [matches] accepts, or [-1 - c] for the empty cell [c] that ends the
    run — the miss to hand to {!add}. *)

val slot : t -> int -> int
(** The slot held by a cell {!find} returned. *)

val add : t -> int -> int -> int -> unit
(** [add t miss h slot] enters [slot] under hash [h] at the cell of
    [miss], a result of {!find} with no write to [t] since. *)

val replace : t -> int -> int -> unit
(** [replace t c slot]: the entry at cell [c] now names [slot] (same
    key, so the same hash). *)

val remove : t -> int -> unit
(** Delete the entry at a cell {!find} returned (backward shift). *)

val remap : t -> (int -> int) -> unit
(** [remap t f] renumbers every entry's slot [s] to [f s] in place —
    the compaction of the store, whose keys do not change. *)

type stats = {
  entries : int;
  cells : int;
  mean_displacement : float;
      (** mean distance from an entry's home cell to its cell *)
  most_per_home : int;  (** the most entries sharing one home cell *)
}

val stats : t -> stats
