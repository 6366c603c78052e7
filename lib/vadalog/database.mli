(** Fact store of the Vadalog engine: per-predicate sets of tuples with
    hash indexes on bound-position patterns, each built by the first
    probe that needs it. Duplicate
    facts are silently ignored (set semantics); fact equality is
    {!Kgm_common.Value.equal} pointwise (so e.g. a fact containing
    [Float nan] equals itself and re-derivation never duplicates it). *)

open Kgm_common

type fact = Value.t array

type ifact = int array
(** A dictionary-encoded fact: each cell is the {!Kgm_common.Intern} id
    of the corresponding value in the database's dictionary. This is
    the representation facts are actually stored, deduplicated and
    joined in — pointwise int equality, no boxed-value traversal. *)

module KeyTbl : Hashtbl.S with type key = Value.t list
(** Hash tables keyed by value tuples, consistent with
    {!Value.equal}/{!Value.hash} — use for any fact-keyed state (the
    engine's aggregation groups, provenance, ...). *)

module IKeyTbl : Hashtbl.S with type key = int list
(** Hash tables keyed by interned probe keys (id tuples). *)

module IFactTbl : Hashtbl.S with type key = ifact
(** Hash tables keyed by interned facts (pointwise int equality; the
    hash mixes every id, so facts whose ids step together still spread
    over all buckets). *)

type t

val create : ?dict:Intern.t -> unit -> t
(** A fresh store; [dict] shares an existing dictionary (ids allocated
    by either side are visible to both). Default: a private one. *)

val dict : t -> Intern.t
(** The database's dictionary, shared by every {!copy} (and so by every
    epoch a server publishes). One writer may append to it while any
    number of domains read it ({!Kgm_common.Intern}); within a chase,
    append only on sequential paths — never while the database is
    frozen for a parallel round. *)

val intern_fact : t -> fact -> ifact
(** Encode a fact, interning any values not yet in the dictionary.
    Never call on a frozen database's dictionary. *)

val resolve_fact : t -> ifact -> fact
(** Decode an interned fact back to values (read-only). *)

val find_fact : t -> fact -> ifact option
(** Read-only encoding: [None] when some value was never interned (then
    the fact cannot be present in any store sharing the dictionary).
    Frozen-safe. *)

val add : t -> string -> fact -> bool
(** [add db pred fact] inserts and returns [true] when the fact is new.
    Facts are stored in append order and the dedup probe is keyed on the
    fact array itself (no per-probe key allocation). Existing indexes on
    the predicate are maintained incrementally. Registered as the
    ["db_insert"] {!Kgm_resilience.Faults} site: with fault injection
    active it may raise [Kgm_resilience.Fault], which lands mid-round —
    the crash the checkpoint/resume tests provoke. *)

val mem : t -> string -> fact -> bool

val add_i : t -> string -> ifact -> bool
(** {!add} for an already-interned fact (no dictionary mutation). *)

val mem_i : t -> string -> ifact -> bool

val facts : t -> string -> fact list
(** Facts of a predicate in insertion order — the order {!add} first
    accepted them, which every probe and export preserves (the engine's
    determinism invariants depend on it); [[]] for unknown predicates. *)

val facts_i : t -> string -> ifact list
(** Interned facts of a predicate in insertion order. *)

val count : t -> string -> int
val total : t -> int

val predicates : t -> string list
(** Every predicate with at least one fact, sorted. *)

val lookup : t -> string -> int list -> Value.t list -> fact list
(** [lookup db pred positions key]: the facts whose values at
    [positions] (ascending) equal [key] pointwise, in insertion order.
    Builds a hash index for the position pattern on first use, on a
    {!freeze}-frozen database too (see {!freeze}); the empty pattern is
    a full scan. Facts too short for the pattern never match. A key
    containing a value absent from the dictionary matches nothing (and
    examines nothing) without touching the dictionary. *)

val iter_matches :
  t -> string -> int list -> Value.t list -> (int -> fact -> unit) -> int
(** [iter_matches db pred positions key f] calls [f seq fact] on exactly
    the facts {!lookup} would return, in the same (insertion) order,
    without allocating a result list. [seq] is the fact's per-predicate
    insertion sequence number (its slot), strictly ascending over the
    calls — the engine's deterministic join-order sort key. Sequence
    numbers start at 0 and are dense until a {!remove_batch}: removed
    facts leave gaps until the store compacts, and compaction renumbers
    the survivors densely in the same order, so only the relative order
    of [seq]s carries meaning.

    Returns the number of facts {e examined} to answer the probe: the
    index-group length (the first probe of a pattern builds its index
    first, frozen store or not), the predicate's live cardinality for
    the empty pattern. The engine charges this to its [rs_probes]
    counter. *)

val iter_matches_i :
  t -> string -> int list -> int list -> (int -> ifact -> bool) -> int
(** {!iter_matches} over interned facts and an id-encoded key — the
    engine's hot probe path (no per-fact decoding) — whose callback can
    stop the probe: [f seq ifact] returning [true] ends it after that
    fact, and the examined count is then what the probe visited up to
    there (the index-group prefix, or the live facts scanned). *)

val probe_size : t -> string -> int list -> int list -> int
(** [probe_size t pred positions key]: how many facts {!iter_matches_i}
    would examine for this probe, without visiting them — the index
    group's length (a missing index is built first, as a probe would
    build it), the predicate's cardinality for the empty pattern. *)

val remove_batch : t -> (string * fact) list -> int
(** [remove_batch t facts] deletes every listed (pred, fact) pair that
    is present; returns how many facts were removed (duplicates counted
    once). A removal tombstones the fact's slot and drops the fact from
    the dedup set and from its index postings — it touches nothing but
    the fact and its index groups. Survivors keep their relative
    insertion order, so {!facts}, every probe's matches and the
    engine's sort keys are exactly as if only the survivors had ever
    been inserted; only the {e values} of sequence numbers differ (gaps
    remain until the store compacts). A store compacts — renumbers its
    survivors densely and rebuilds its indexes — only when its dead
    slots outnumber its live facts, so removal is amortized O(1) per
    fact plus its index groups; {!count} and {!total} always count live
    facts. A predicate emptied by the removal vanishes from
    {!predicates}. This is the deletion primitive of the incremental
    maintenance layer ({!Kgm_vadalog.Incremental}); it is
    batch-oriented because DRed removes a whole overdeletion cone at
    once. Raises [Invalid_argument] on a frozen database. *)

(** {1 Change log (twin stores)}

    A serving layer keeps two physical stores that take turns: while
    readers answer from one (frozen), the writer mutates the other.
    With {!record} on, a store logs every successful {!add}/{!add_i}
    and every fact {!remove_batch} removed, in order; {!replay} applies
    that log to a twin holding the same facts as the recorder held
    when its log was last cleared, which leaves the twin with the same
    facts in the same per-predicate order — in time proportional to the
    log, not the store. *)

val record : t -> bool -> unit
(** Start ([true]) or stop ([false]) recording; either way the log
    restarts empty. Off by default, and {!copy} does not record. *)

val replay : t -> into:t -> int
(** [replay src ~into] applies [src]'s recorded operations to [into], in
    order, then clears [src]'s log; returns how many were applied. The
    replay is not itself recorded (the target's own log is untouched)
    and does not fire the ["db_insert"] fault site. [into] must share
    [src]'s dictionary and be unfrozen (else [Invalid_argument]). *)

val apply_batch :
  t -> retracts:(string * fact) list -> inserts:(string * fact) list ->
  int * int
(** [apply_batch t ~retracts ~inserts] is how an update batch changes a
    fact set: {!remove_batch} the retractions first, then add the
    inserts, so a fact named by both moves to the end of its predicate
    and a fact listed twice counts once. Returns [(removed, inserted)],
    both counting distinct facts. Like {!replay} it does not fire the
    ["db_insert"] fault site, so on an unfrozen store it cannot raise;
    a frozen one raises [Invalid_argument] before any change. Recorded
    like {!add} and {!remove_batch} when {!record} is on. *)

(** {1 Freezing (parallel read phases)}

    The restricted-chase engine evaluates rule bodies from several
    domains at once against a read-only snapshot, and the server answers
    queries from a frozen epoch. Freezing makes the store safe for
    concurrent readers: writes are rejected, and the only change a read
    can make is the index its probe pattern lacks. The first probe of a
    pattern builds it under the store's one mutex, looking again inside
    the lock, and publishes it by replacing an immutable list held in an
    [Atomic.t]; a probe of an existing index takes no lock. Indexes
    built while frozen stay after {!thaw}, and writes maintain them
    like any other. *)

val freeze : t -> unit
(** Reject writes ({!add} raises [Invalid_argument]) until {!thaw}. *)

val thaw : t -> unit
val is_frozen : t -> bool

val prepare_index : t -> string -> int list -> unit
(** [prepare_index db pred positions] builds the index for the position
    pattern now rather than at its first probe (a no-op for the empty
    pattern, unknown predicates or an already-built index). *)

val indexed_patterns : t -> string -> int list list
(** The position patterns currently indexed for a predicate, sorted. *)

(** {1 Aliases kept for kgbench}

    The benchmark probes its frozen copies through these names; they are
    {!iter_matches} (a frozen store builds its own missing index). *)

type index_cache

val cache_create : unit -> index_cache

val iter_matches_cached :
  index_cache -> t -> string -> int list -> Value.t list ->
  (int -> fact -> unit) -> int
(** [iter_matches_cached _ = iter_matches]. *)

val copy : t -> t
(** Copy of the stores. The dictionary and the fact arrays are
    {e shared} (a stored fact is never written to), so ids stay stable
    across copies and a copy costs its tables, not its facts. Live facts
    are copied in insertion order (densely renumbered), every index
    pattern of the source is built on the copy at once, and the frozen
    flag carries over (a copy of a frozen snapshot is itself a read-only
    snapshot). The copy does not record ({!record}) and does not fire
    the ["db_insert"] fault site. *)

val pp : Format.formatter -> t -> unit
(** Every fact as [pred(v1, ..., vn).] lines, predicates sorted. *)
