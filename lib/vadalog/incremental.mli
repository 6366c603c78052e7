(** Incremental maintenance of a chased materialization.

    A {!state} couples a database with the programs that chased it, the
    {!Support.t} recorded while chasing, and the current
    extensional database (EDB): the facts that were {e loaded}, as
    opposed to derived. {!maintain} then repairs the materialization in
    place under a batch of extensional inserts and retractions:

    - inserts seed the engine's delta machinery ({!Engine.run_delta}),
      reusing the planner's delta-first plans and the pool's parallel
      rounds — only consequences of the new facts are evaluated;
    - retractions use delete-and-rederive (DRed): the downward closure
      of the retracted facts (the {e overdeletion cone}) is walked over
      the support's reverse edges, an alive-set fixpoint inside the
      cone rederives every fact that still has an all-alive derivation
      from the surviving EDB, and the rest is deleted. A labeled null
      whose creating derivation dies takes every fact carrying it down
      too. Restricted-chase firings that were suppressed because their
      image already existed are re-attempted when that image dies.

    Maintenance is {e stratum-aware}: each phase is compiled, and so
    stratified, once per session ({!Engine.compile}; again after a
    re-chase) and non-monotone constructs only poison the
    strata that contain them. A stratum the update reaches through
    stratified negation or [Stratified] aggregation is marked
    {e wholesale} — its derived facts are force-deleted through the
    cone and the stratum is re-derived by a full round inside the
    phase's one seeded pass ({!Engine.run_delta} with [?wholesale]),
    on top of the already-maintained lower strata, never from scratch
    — while every other stratum keeps the DRed path. [Monotonic] aggregates
    (the paper's [msum]) are maintained by {e counting}. The state
    keeps their accumulators, which every engine pass folds into, and
    nothing else per group: a retraction lists the matches of the
    groups its cone touches from the store ({!Engine.list_matches}),
    refolds them from the surviving matches, and only threshold-crossing
    head facts cascade. A full re-chase ([u_fallback]) survives only
    for updates the machinery genuinely cannot localize: a
    non-semi-naive engine, a monotonic aggregate outside
    {!Analysis.monotonic_profiles}, or an affected non-counting
    monotonic rule (order-sensitive accumulators such as [pack]
    running totals, or a [sum] that met a negative weight).

    The repaired database is equal — same facts, labeled nulls
    numbered identically up to the canonical renaming of
    {!canonical_facts} — to a from-scratch chase of the updated EDB, at
    every [jobs] value and with the planner on or off, with one
    exception: [sum(w, <z>)] folds the first match per contributor key
    it meets, so when one contributor has two live matches with
    different weights, maintenance and a re-chase may meet them in a
    different order and fold different ones. *)

type state
(** A maintained materialization. Mutable: {!maintain} repairs it in
    place. The underlying database is shared, not copied — reading it
    through {!db} after a [maintain] sees the repaired facts, but note
    that a fallback re-chase replaces the database object itself, so
    always re-fetch it through {!db} rather than caching it. *)

type update_stats = {
  u_inserted : int;     (** distinct facts the batch added to the EDB *)
  u_retracted : int;    (** distinct facts the batch removed from the
                            EDB (a line given twice counts once) *)
  u_cone : int;         (** size of the overdeletion cone *)
  u_rederived : int;    (** cone facts saved by an alternative derivation *)
  u_deleted : int;      (** facts removed from the database *)
  u_refired : int;      (** suppressed firings re-attempted *)
  u_derived : int;      (** facts added by the seeded semi-naive pass *)
  u_rounds : int;       (** rounds of the seeded pass *)
  u_strata : int;       (** strata re-derived wholesale (negation /
                            stratified aggregation in the update's
                            reach); 0 = pure DRed + counting *)
  u_agg_groups : int;   (** monotonic-aggregate groups touched by the
                            overdeletion cone: a cone fact feeds one of
                            their matches (counting maintenance) *)
  u_fallback : bool;    (** the batch was served by a full re-chase *)
  u_elapsed_s : float;  (** monotonic wall time of the whole update *)
}

val chase :
  ?options:Engine.options -> ?telemetry:Kgm_telemetry.t ->
  ?journal:Kgm_telemetry.Journal.t ->
  ?db:Database.t -> Rule.program -> state * Engine.stats
(** Chase [program] (against [db] when given, a fresh database
    otherwise) with support recording on, and return the maintainable
    state. Facts already in [db] plus the program's fact list form the
    initial EDB. *)

val chase_phases :
  ?options:Engine.options -> ?telemetry:Kgm_telemetry.t ->
  ?journal:Kgm_telemetry.Journal.t ->
  db:Database.t -> Rule.program list -> state * Engine.stats
(** Like {!chase} for a multi-phase pipeline (e.g. the two materialize
    phases): the phases are chased in order against the same database
    and recorded into one shared support, and {!maintain} replays them
    in the same order. The phase list must be non-empty. *)

val db : state -> Database.t
(** The current materialization. Re-fetch after every {!maintain}. *)

val edb_copy_s : state -> float
(** Seconds {!chase} spent copying the loaded store into the session's
    EDB (a ["chase.edb_copy"] span when telemetry is on). *)

val phases : state -> Rule.program list
(** The chased pipeline, in replay order. *)

val options : state -> Engine.options
(** The engine options the state was chased with; every repair runs
    under them (with [on_limit = `Raise]). *)

val support : state -> Support.t
(** The live support (provenance edges) backing DRed. Replaced by a
    fallback re-chase, so re-fetch after every {!maintain} — e.g. to
    explain a fact against the current materialization. *)

val edb_facts : state -> (string * Database.fact) list
(** The current extensional facts, each once, per predicate: predicates
    sorted, each predicate's facts in insertion order, so a fact
    retracted and later re-inserted sits at its latest insertion —
    where maintenance puts it in the store. The EDB is one
    {!Database.t} sharing the store's dictionary. *)

val iter_edb : state -> (string -> Database.fact -> unit) -> unit
(** The current extensional facts in {!edb_facts}'s order, one call
    each, without building the list. *)

val swap_db : state -> Database.t -> unit
(** [swap_db st twin] hands the session a twin of its database: a store
    holding the same facts in the same per-predicate order (sequence
    numbers may differ), e.g. one brought up to date by
    {!Database.replay}. The support and the EDB refer to facts by id,
    over the dictionary the twins share, and the aggregate accumulators
    by value, so all three carry over unchanged; the caller owns the
    store taken out. [twin] must share the dictionary; nothing else
    checks that it is a twin. *)

val maintain :
  ?telemetry:Kgm_telemetry.t -> ?journal:Kgm_telemetry.Journal.t ->
  ?pool:Kgm_pool.pool -> state ->
  inserts:(string * Database.fact) list ->
  retracts:(string * Database.fact) list -> update_stats
(** Apply a batch of extensional updates and repair the
    materialization. Retractions of facts not currently extensional are
    ignored (a derived fact cannot be retracted — it would be
    rederived); inserts already extensional are ignored. The batch
    changes the EDB exactly as {!Database.apply_batch} changes a fact
    set: retractions before inserts, so a batch may move a fact, and a
    fact listed twice counts once. Each phase the batch can reach gets
    exactly one {!Engine.run_delta} pass. [pool] is handed to every
    engine pass of the batch (see {!Engine.run}): a caller maintaining
    batch after batch passes one pool, whose domains then start once,
    instead of a pool started and joined per pass.
    Emits [incremental.*] telemetry counters mirroring {!update_stats},
    and with an enabled collector one observation per batch of each of
    the [incremental.plan], [.overdelete], [.alive], [.delete],
    [.reseed] and [.commit] histograms: consecutive laps of the batch,
    so they add up to [u_elapsed_s] (a re-chase is one [reseed] lap).
    The batch is interned once, on entry; a retraction naming a value
    never interned names no stored fact and is ignored. An enabled
    [journal] additionally records [maintain.start],
    [dred.cone] (overdeletion cone / rederivation / deletion sizes) and
    [maintain.end] events around the seeded passes' own event streams.

    A batch is all-or-nothing by commit: the repair (DRed, counting,
    the seeded passes, or a fallback re-chase of a copy of the EDB)
    never writes the EDB, and only once it has returned is the batch
    committed to the EDB with {!Database.apply_batch}, which cannot
    raise. If the repair raises (an exhausted worker retry, a [round]
    or [db_insert] fault) or a budget ([deadline_s], [max_facts],
    [max_rounds]) stops it, the exception propagates, the EDB
    ({!edb_facts}) is untouched — nothing is undone — and the next
    [maintain], whatever its batch, re-chases ([u_fallback]) before
    anything builds on the half-repaired store. A repair runs under
    [on_limit = `Raise] whatever the state's options say: a [`Partial]
    stop would leave a half-repaired store behind a normal return. *)

val canonical_facts : Database.t -> (string * Database.fact list) list
(** The database contents in canonical form: predicates sorted, facts
    of each predicate sorted, and labeled nulls renumbered densely from
    0 in order of first occurrence over that sorted stream. Two
    materializations of the same EDB — e.g. a maintained database and a
    from-scratch re-chase — canonicalize identically even though their
    absolute null ids differ (the null counter is process-global). The
    renaming sorts facts with nulls masked by their within-fact
    repetition pattern, which names nulls uniquely for warded chases
    like ours; pathological fact sets that are identical up to a
    cross-fact null permutation may canonicalize to distinct forms
    (never the converse — equal canonical forms always mean isomorphic
    databases). Use {!equal_facts} for an exact decision. *)

val equal_facts : Database.t -> Database.t -> bool
(** Whether the two databases hold the same facts up to a bijective
    renaming of labeled nulls — a true isomorphism check. Equal
    canonical forms decide the common case in one pass; when they
    differ (fact sets identical only up to a cross-fact null
    permutation), an exact backtracking search for the bijection
    settles it, restricted to facts of the same predicate and
    within-fact null pattern. *)
